"""Differential tests of the O(log s) single-count route against the linear
recurrence stream it replaced, and against the series windows; and of the
series windows and twisted counts, which carry one power of q, against a
fresh power of q per term."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcubic import (
    CubicClass,
    count_diagonal,
    count_twisted,
    cubic_data,
    delta,
    diagonal_series,
    make_field,
    twisted_series,
)
from diagcubic.constants import cd_search
from diagcubic.counting import _recurrence, _seeds, _term, _x_power
from diagcubic.fields import NONCUBIC_CLASSES

#: q -> its characteristic p, for q = 1 (mod 3); c comes from the (c, d) search.
FIELD_SIZES = {4: 2, 7: 7, 13: 13, 31: 31, 49: 7, 64: 2, 2197: 13}

FIELDS = ((7, 1), (31, 1), (7, 2), (2, 6), (13, 4))
TERMS = (1, 2, 3, 4, 500, 2000)
CLASSES = (CubicClass.ZERO, CubicClass.C0, CubicClass.C1, CubicClass.C2)


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELD_SIZES)),
    seeds=st.tuples(*[st.integers(-10**9, 10**9)] * 3),
    s=st.integers(1, 400),
)
def test_power_route_equals_stream(q, seeds, s):
    c, _ = cd_search(q, FIELD_SIZES[q])
    stream_term = next(islice(_recurrence(seeds, q, c), s - 1, None))
    assert _term(_x_power(s - 1, q, c), seeds) == stream_term


@pytest.fixture(scope="module", params=FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
def data(request):
    return cubic_data(make_field(*request.param))


@pytest.mark.parametrize("n", TERMS)
def test_count_is_last_series_coefficient(data, n):
    for cls in CLASSES:
        assert count_diagonal(data, n, cls) == diagonal_series(data, cls, n).coefficients[-1]


@pytest.mark.parametrize("n", TERMS)
def test_twisted_count_is_last_twisted_series_term(data, n):
    for cls in NONCUBIC_CLASSES:
        assert count_twisted(data, n + 1, cls) == twisted_series(data, cls, n)[-1]


#: Window lengths for the running-power checks; shorter windows end on the seeds.
WINDOWS = (1, 2, 3, 4, 300)


@pytest.mark.parametrize("n", WINDOWS)
def test_diagonal_series_equals_fresh_powers(data, n):
    q, c = data.q, data.c
    for cls in CLASSES:
        stream = _recurrence(_seeds(data, cls, "exact"), q, c)
        expected = tuple(q ** i + next(stream) for i in range(n))
        assert diagonal_series(data, cls, n).coefficients == expected


@pytest.mark.parametrize("n", WINDOWS)
def test_twisted_series_equals_fresh_powers(data, n):
    q, c, d = data.q, data.c, data.d
    for cls in NONCUBIC_CLASSES:
        v1 = -(q - 1)
        v2 = -(q - 1) * (c + 9 * d * delta(data, cls)) // 2
        stream = _recurrence((v1, v2, 3 * q * v1), q, c)
        expected = tuple(q ** (i + 1) + next(stream) for i in range(n))
        assert twisted_series(data, cls, n) == expected


@pytest.mark.parametrize("s", (2, 3, 4, 1000, 20000))
def test_twisted_count_from_two_diagonal_counts(data, s):
    q = data.q
    zero_count = count_diagonal(data, s - 1, CubicClass.ZERO)
    for cls in NONCUBIC_CLASSES:
        assert count_twisted(data, s, cls) == zero_count + (q - 1) * count_diagonal(data, s - 1, cls)
