"""Differential tests of the O(log s) single-count route, x^(3m) = q^m (3x + c)^m
modulo the characteristic polynomial, against the linear recurrence stream, the
plain power x^(s-1) it replaced (kept here as :func:`_x_power`) and the series
windows; and of the series windows and twisted counts, which carry one power of
q, against a fresh power of q per term."""

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
from diagcubic.counting import _recurrence, _seeds, _term_at, _twisted_seeds
from diagcubic.fields import NONCUBIC_CLASSES

#: q -> its characteristic p, for q = 1 (mod 3); c comes from the (c, d) search.
#: q = 4, 25 and 64 have p = 2 (mod 3).
FIELD_SIZES = {4: 2, 7: 7, 13: 13, 25: 5, 31: 31, 49: 7, 64: 2, 2197: 13}

FIELDS = ((7, 1), (31, 1), (7, 2), (2, 6), (13, 4))
TERMS = (1, 2, 3, 4, 500, 2000)
CLASSES = (CubicClass.ZERO, CubicClass.C0, CubicClass.C1, CubicClass.C2)


def _x_power(n, q, c):
    """(r0, r1, r2) with x^n = r0 + r1*x + r2*x^2 modulo x^3 - 3q*x - qc.

    The route the single counts took before x^(3m) = q^m (3x + c)^m:
    left-to-right square-and-multiply of x itself, with the reduction
    x^3 = 3q*x + qc.  n < 3 needs no arithmetic.
    """
    if n < 3:
        return (1, 0, 0) if n == 0 else (0, 1, 0) if n == 1 else (0, 0, 1)
    three_q, qc = 3 * q, q * c
    r0, r1, r2 = 1, 0, 0
    for bit in bin(n)[2:]:
        p0, p1, p2 = r0 * r0, 2 * r0 * r1, r1 * r1 + 2 * r0 * r2
        p3, p4 = 2 * r1 * r2, r2 * r2
        r0, r1, r2 = p0 + qc * p3, p1 + three_q * p3 + qc * p4, p2 + three_q * p4
        if bit == "1":  # times x
            r0, r1, r2 = qc * r2, r0 + three_q * r2, r1
    return r0, r1, r2


def _x_power_term(n, seeds, q, c):
    """x_{n+1} of the recurrence from seeds, by the plain power x^n."""
    return sum(r * x for r, x in zip(_x_power(n, q, c), seeds))


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELD_SIZES)),
    seeds=st.tuples(*[st.integers(-10**9, 10**9)] * 3),
    n=st.integers(0, 400),
)
def test_power_route_equals_stream(q, seeds, n):
    c, _ = cd_search(q, FIELD_SIZES[q])
    stream_term = next(islice(_recurrence(seeds, q, c), n, None))
    assert _term_at(n, seeds, q, c) == stream_term == _x_power_term(n, seeds, q, c)


@pytest.mark.parametrize("q", sorted(FIELD_SIZES))
def test_power_route_covers_every_small_exponent(q):
    # m = 0 and every residue r = n mod 3, for one fixed set of seeds
    c, _ = cd_search(q, FIELD_SIZES[q])
    seeds = (2, c - 2, 6 * q - c)
    stream = islice(_recurrence(seeds, q, c), 12)
    for n, stream_term in enumerate(stream):
        assert _term_at(n, seeds, q, c) == stream_term == _x_power_term(n, seeds, q, c)


#: The counts-deep fields and the p = 2 (mod 3) fields F_4, F_25, F_64.
DEEP_FIELDS = FIELDS + ((2, 2), (5, 2))


@pytest.mark.parametrize("pk", DEEP_FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
@pytest.mark.parametrize("s", (10_000, 20_000))
def test_deep_counts_equal_plain_power(pk, s):
    data = cubic_data(make_field(*pk))
    q, c = data.q, data.c
    for cls in CLASSES:
        expected = q ** (s - 1) + _x_power_term(s - 1, _seeds(data, cls, "exact"), q, c)
        assert count_diagonal(data, s, cls) == expected
    for cls in NONCUBIC_CLASSES:
        expected = q ** (s - 1) + _x_power_term(s - 2, _twisted_seeds(data, cls, "exact"), q, c)
        assert count_twisted(data, s, cls) == expected


@pytest.mark.parametrize("pk", DEEP_FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
def test_smallest_counts(pk):
    # N_1..N_4 and T_2 (n = 0): the seeds themselves, one recurrence step,
    # and the plain power
    data = cubic_data(make_field(*pk))
    q, c = data.q, data.c
    for cls in CLASSES:
        u1, u2, u3 = seeds = _seeds(data, cls, "exact")
        closed = (1 + u1, q + u2, q * q + u3, q ** 3 + 3 * q * u2 + q * c * u1)
        old = tuple(q ** (s - 1) + _x_power_term(s - 1, seeds, q, c) for s in range(1, 5))
        assert tuple(count_diagonal(data, s, cls) for s in range(1, 5)) == closed == old
    for cls in NONCUBIC_CLASSES:
        seeds = _twisted_seeds(data, cls, "exact")
        # T_2(y) = 1: x_1^3 + y x_2^3 = 0 only at the origin for non-cubic y
        assert count_twisted(data, 2, cls) == q + seeds[0] == q + _x_power_term(0, seeds, q, c) == 1


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
