"""The generator search and cube classes read off the norm, against the field
powers they replaced, and the work each route does."""

import time

import pytest

from diagcubic import CubicClass, ResourceError, cubic_data, make_field
from diagcubic import fields as fields_module
from diagcubic import polynomials
from diagcubic.fields import NONZERO_CLASSES, find_irreducible
from diagcubic.ntheory import prime_factors, primes_up_to

#: every field with q <= 1024: 172 prime fields and 26 extension fields
SMALL_FIELDS = sorted(
    (p, k) for p in primes_up_to(1024) for k in range(1, 11) if p ** k <= 1024
)


def _full_order_by_powers(field, x):
    """The order test before the norm filter: one field power per prime l | q - 1."""
    n = field.q - 1
    return not x.is_zero() and all(x ** (n // ell) != field.one for ell in prime_factors(n))


def test_small_fields_are_all_there():
    assert len(SMALL_FIELDS) == 198
    assert sum(p ** k - 1 for p, k in SMALL_FIELDS) == 87562


@pytest.mark.parametrize("k", range(1, 11))
def test_order_test_and_norm_match_the_powers(k):
    for p in (p for p, kk in SMALL_FIELDS if kk == k):
        field = make_field(p, k)
        to_norm = (field.q - 1) // (p - 1)
        for x in field.nonzero_elements():
            assert field._has_full_order(x) == _full_order_by_powers(field, x), x
            assert x.norm() == (x ** to_norm).coeffs[0] and not any((x ** to_norm).coeffs[1:]), x
        assert field.zero.norm() == 0 and not field._has_full_order(field.zero)


@pytest.mark.parametrize("p, k", [(p, k) for p, k in SMALL_FIELDS if p ** k % 3 == 1])
def test_cube_class_matches_the_power(p, k):
    field = make_field(p, k)
    e = (field.q - 1) // 3
    roots = [field.g ** (e * i) for i in range(3)]
    for z in field.nonzero_elements():
        assert field.cube_class(z) is NONZERO_CLASSES[roots.index(z ** e)], z
    assert field.cube_class(field.zero) is CubicClass.ZERO


@pytest.mark.parametrize("p, k, g", [(31, 15, "2,1,1"), (13, 24, "0,1,1")])
def test_generators_of_the_slowest_searches(p, k, g):
    start = time.perf_counter()
    field = make_field(p, k)
    assert time.perf_counter() - start < 1.0
    assert str(field.g) == g + ",0" * (k - 3)


@pytest.fixture
def powers(monkeypatch):
    """The bases of every field power fields._pow_mod takes while the test runs."""
    bases = []
    real = fields_module._pow_mod
    monkeypatch.setattr(fields_module, "_pow_mod", lambda base, e, f, p: bases.append(base) or real(base, e, f, p))
    return bases


def test_cubic_data_takes_no_field_power(powers):
    field = make_field(13, 4)
    powers.clear()
    data = cubic_data(field)
    assert (data.c, data.d) == (337, 5)  # 4 * 13^4 = 337^2 + 27 * 5^2
    assert powers == []


def test_candidates_the_norm_rejects_take_no_power(powers):
    # over F_{13^4}, q - 1 = 2^4 * 3 * 5 * 7 * 17 and p - 1 = 2^2 * 3; of the
    # candidates 13 .. 17 the norms of 14, 15 and 16 (3, 5, 5) are no primitive
    # roots mod 13, those of 13 and 17 (2, 11) are
    field = make_field(13, 4)
    candidates = {code: field.element_from_int(code).coeffs for code in range(13, 18)}
    powers.clear()
    assert int(fields_module.find_generator(field)) == 17
    assert [base for base in powers if base in candidates.values()] == [candidates[13], candidates[17]]
    # with L = 5 * 7 * 17, 13 = t stops at y = t ** (n/L) = 1, and 17 takes y
    # and y ** (L/l) for l = 5, 7, 17
    assert len(powers) == 1 + 4
    for code in (14, 15, 16):
        powers.clear()
        assert not field._has_full_order(field.element_from_int(code))
        assert powers == []


@pytest.mark.parametrize("cap_in_tests", [1, 2, 3])
def test_refusal_after_the_binomial_skip_counts_tested_candidates(monkeypatch, cap_in_tests):
    # no binomial t^3 + a is irreducible over F_11, so the scan starts at code 11
    tested = []
    real = polynomials.ben_or
    monkeypatch.setattr(polynomials, "ben_or", lambda poly, q: tested.append(poly) or real(poly, q))
    monkeypatch.setattr(polynomials, "MAX_IRREDUCIBILITY_COST", cap_in_tests * polynomials.irreducibility_cost(11, 3))
    with pytest.raises(ResourceError) as refused:
        find_irreducible(11, 3)
    assert len(tested) == cap_in_tests + 1
    assert (
        f"among the first {len(tested)} candidates after the 11 binomials, skipped as none is irreducible, "
        in str(refused.value)
    )
