"""The five result records: immutable, compared and hashed by value, and
EisensteinInt arithmetic in Z[w] rather than tuple arithmetic."""

import pytest

from diagcubic import (
    CubicClass,
    CubicData,
    EisensteinInt,
    SeriesWindow,
    cubic_data,
    diagonal_series,
    make_field,
)
from diagcubic.oracle import CyclotomicInt, gauss_sum
from diagcubic.verify import Check


def _c7():
    return cubic_data(make_field(7))


#: record type -> builder of (a record, an equal record built separately, a different record)
RECORDS = {
    CubicData: lambda: (_c7(), _c7(), cubic_data(make_field(13))),
    SeriesWindow: lambda: tuple(diagonal_series(_c7(), cls, 5) for cls in (CubicClass.C1, CubicClass.C1, CubicClass.C2)),
    EisensteinInt: lambda: (EisensteinInt(4, 6), EisensteinInt(4, 6), EisensteinInt(6, 4)),
    CyclotomicInt: lambda: (gauss_sum(make_field(7)), gauss_sum(make_field(7)), gauss_sum(make_field(7), 2)),
    Check: lambda: (Check("a", "pass", 1, 1), Check("a", "pass", 1, 1, ""), Check("a", "fail", 1, 2)),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
class TestRecordSemantics:
    def test_type(self, kind):
        assert all(type(r) is kind for r in RECORDS[kind]())

    def test_refuses_assignment(self, kind):
        record, same, other = RECORDS[kind]()
        field = next(iter(kind.__annotations__))
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == same

    def test_equality_and_hash(self, kind):
        record, same, other = RECORDS[kind]()
        assert record is not same
        assert record == same and not record != same
        assert hash(record) == hash(same)
        assert record != other
        assert len({record, same, other}) == 2


def test_check_to_dict_key_order():
    check = Check("example/c", "pass", {"closed": 4, "brute": 4}, 4, "detail")
    assert list(check._asdict()) == ["name", "status", "observed", "expected", "detail"]
    assert check._asdict() == {
        "name": "example/c", "status": "pass", "observed": {"closed": 4, "brute": 4},
        "expected": 4, "detail": "detail",
    }
    assert Check("x", "warn", 0, 0)._asdict()["detail"] == ""


def test_eisenstein_repr():
    assert repr(EisensteinInt(1, 0)) == "EisensteinInt(a=1, b=0)"
    assert str(EisensteinInt(1, -3)) == "1-3*w"


class TestEisensteinOperators:
    """The operators tuple defines too (+, * and reversed *) and the ones it
    lacks (-, unary -, **) are Z[w] arithmetic."""

    @pytest.mark.parametrize("operation, expected", [
        pytest.param(lambda e: 3 * e, EisensteinInt(3, 6), id="3*e"),
        pytest.param(lambda e: e * 3, EisensteinInt(3, 6), id="e*3"),
        pytest.param(lambda e: e + e, EisensteinInt(2, 4), id="e+e"),
        pytest.param(lambda e: e - EisensteinInt(3, 5), EisensteinInt(-2, -3), id="e-f"),
        pytest.param(lambda e: -e, EisensteinInt(-1, -2), id="-e"),
        # (1 + 2w)^2 = 1 + 4w + 4w^2 with w^2 = -1 - w
        pytest.param(lambda e: e * e, EisensteinInt(-3, 0), id="e*e"),
        pytest.param(lambda e: e ** 2, EisensteinInt(-3, 0), id="e**2"),
        pytest.param(lambda e: e ** 3, EisensteinInt(-3, -6), id="e**3"),
        pytest.param(lambda e: e ** 0, EisensteinInt(1, 0), id="e**0"),
    ])
    def test_ring_operations(self, operation, expected):
        value = operation(EisensteinInt(1, 2))
        assert type(value) is EisensteinInt
        assert (value.a, value.b) == (expected.a, expected.b)

    def test_norm_is_multiplicative_through_the_operators(self):
        e, f = EisensteinInt(1, 2), EisensteinInt(-4, 7)
        assert (e * f).norm() == e.norm() * f.norm()
        assert (2 * f).norm() == 4 * f.norm()
