"""Differential tests of the O(log s) single-count route, x^(3m) = q^m (3x + c)^m
modulo the characteristic polynomial, against the linear recurrence stream, the
plain power x^(s-1) it replaced (kept here as :func:`_x_power`) and the series
windows; of the series windows and twisted counts, which carry one power of q,
against a fresh power of q per term; and of the bounded memo of (3x + c)^m and
of the powers of q, which the counts at one (q, c, s) share: warm and cold
runs, in any order and across fields and generators, give the same values,
and the memo stays within its size."""

import random
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcubic import (
    CubicClass,
    count_diagonal,
    count_twisted,
    cubic_data,
    diagonal_series,
    make_field,
    twisted_series,
)
from diagcubic.cli import _MAX_OUTPUT_DIGITS
from diagcubic.constants import delta
from diagcubic.counting import (
    _POWER_MEMO_SIZE,
    _cube_power,
    _q_power,
    _recurrence,
    _term_at,
    _twisted_seeds,
    excess_seeds,
)
from diagcubic.fields import NONCUBIC_CLASSES
from diagcubic.verify import cd_search

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


#: (count, class) for every target of N_s and both classes of T_s.
ALL_COUNTS = [(count_diagonal, cls) for cls in CLASSES] + [(count_twisted, cls) for cls in NONCUBIC_CLASSES]


def _witness(data, count, cls, s):
    """count(data, s, cls) by the plain power x^(s-1), or x^(s-2) for T_s."""
    q, c = data.q, data.c
    if count is count_diagonal:
        return q ** (s - 1) + _x_power_term(s - 1, excess_seeds(data, cls), q, c)
    return q ** (s - 1) + _x_power_term(s - 2, _twisted_seeds(data, cls), q, c)


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
    for count, cls in ALL_COUNTS:
        assert count(data, s, cls) == _witness(data, count, cls, s)


@pytest.mark.parametrize("pk", DEEP_FIELDS, ids=lambda f: f"{f[0]}^{f[1]}")
def test_smallest_counts(pk):
    # N_1..N_4 and T_2 (n = 0): the seeds themselves, one recurrence step,
    # and the plain power
    data = cubic_data(make_field(*pk))
    q, c = data.q, data.c
    for cls in CLASSES:
        u1, u2, u3 = seeds = excess_seeds(data, cls)
        closed = (1 + u1, q + u2, q * q + u3, q ** 3 + 3 * q * u2 + q * c * u1)
        old = tuple(q ** (s - 1) + _x_power_term(s - 1, seeds, q, c) for s in range(1, 5))
        assert tuple(count_diagonal(data, s, cls) for s in range(1, 5)) == closed == old
    for cls in NONCUBIC_CLASSES:
        seeds = _twisted_seeds(data, cls)
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
        stream = _recurrence(excess_seeds(data, cls), q, c)
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


# -- the power memo ---------------------------------------------------------

MEMOS = (_cube_power, _q_power)

#: The counts-deep exponents.
DEEP_S = (10, 1_000, 10_000, 20_000)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _cold(count, *args):
    """count(*args) with both memos empty."""
    _clear_memos()
    return count(*args)


@pytest.fixture(scope="module")
def deep_data():
    return {pk: cubic_data(make_field(*pk)) for pk in FIELDS}


@pytest.fixture(scope="module")
def deep_witnesses(deep_data):
    out = {}
    for pk, data in deep_data.items():
        for s in DEEP_S:
            for count, cls in ALL_COUNTS:
                out[pk, s, count, cls] = _witness(data, count, cls, s)
    return out


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_warm_equals_cold_in_any_order(deep_data, deep_witnesses, seed):
    # every counts-deep value, in a shuffled order from empty memos, against
    # the same count from empty memos and the plain power
    jobs = list(deep_witnesses)
    random.Random(seed).shuffle(jobs)
    _clear_memos()
    warm = {(pk, s, count, cls): count(deep_data[pk], s, cls) for pk, s, count, cls in jobs}
    assert _cube_power.cache_info().hits > 0 and _q_power.cache_info().hits > 0
    for job in jobs:
        pk, s, count, cls = job
        assert warm[job] == _cold(count, deep_data[pk], s, cls) == deep_witnesses[job]


@pytest.mark.parametrize("s", DEEP_S)
def test_counts_at_one_point_share_the_powers(deep_data, s):
    # the four targets of N_s take one (3x + c)^m and one q^m, q^(s-1) is
    # raised once for N_s and T_s, and T_s reuses N_s's power when
    # s - 1 = 3m + r with r >= 1
    data = deep_data[(13, 4)]
    _clear_memos()
    for cls in CLASSES:
        count_diagonal(data, s, cls)
    assert _cube_power.cache_info()[:2] == (3, 1)
    assert _q_power.cache_info()[:2] == (6, 2)
    for cls in NONCUBIC_CLASSES:
        count_twisted(data, s, cls)
    shared = (s - 1) % 3 != 0
    assert _cube_power.cache_info()[:2] == ((5, 1) if shared else (4, 2))
    assert _q_power.cache_info()[:2] == ((10, 2) if shared else (9, 3))


@pytest.mark.parametrize("s", (10, 1_000, 10_000))
def test_fields_sharing_an_exponent_interleave(s):
    # q = 7, 31 and 64 at the same s give the same m: the memos are keyed on
    # (q, c) as well, round after round
    fields = [cubic_data(make_field(*pk)) for pk in ((7, 1), (31, 1), (2, 6))]
    expected = {(data.q, count, cls): _witness(data, count, cls, s) for data in fields for count, cls in ALL_COUNTS}
    _clear_memos()
    for _ in range(2):
        for count, cls in ALL_COUNTS:
            for data in fields:
                assert count(data, s, cls) == expected[data.q, count, cls]


def test_memo_keyed_on_c():
    # one (m, q) under two values of c: two entries, each its own power
    _clear_memos()
    q, m = 31, 40
    for c in (4, 7, 4, 7):
        assert _cube_power(m, q, c) == _cube_power.__wrapped__(m, q, c)
    assert _cube_power.cache_info()[:2] == (2, 2)
    assert _cube_power(m, q, 4) != _cube_power(m, q, 7)


@pytest.mark.parametrize("s", (3, 10, 1_000, 20_000))
def test_other_coset_generator_interleaves(s):
    # the two cosets of generators of F_49 share (q, c), flip theta and swap
    # C1 with C2; a concrete element's counts agree whichever field comes first
    fields = {g: make_field(7, 2, None, g) for g in ((2, 1), (3, 1))}
    data = {g: cubic_data(f) for g, f in fields.items()}
    a, b = data.values()
    assert (a.q, a.c) == (b.q, b.c) and a.theta == -b.theta
    first = fields[(2, 1)]
    z = next(coeffs for coeffs in ((0, 1), (1, 1), (2, 1), (3, 1))
             if first.cube_class(first.element(coeffs)) is CubicClass.C1)
    classes = {g: f.cube_class(f.element(z)) for g, f in fields.items()}
    assert classes == {(2, 1): CubicClass.C1, (3, 1): CubicClass.C2}
    expected_n = _witness(a, count_diagonal, CubicClass.C1, s)
    expected_t = _witness(a, count_twisted, CubicClass.C1, s)
    for order in (((2, 1), (3, 1)), ((3, 1), (2, 1))):
        _clear_memos()
        for g in order * 2:
            assert count_diagonal(data[g], s, classes[g]) == expected_n
            assert count_twisted(data[g], s, classes[g]) == expected_t


def test_memos_stay_within_their_size():
    # 50 distinct (q, s), each with every count, against the module's bound
    fields = [cubic_data(make_field(*pk)) for pk in ((7, 1), (13, 1), (31, 1), (7, 2), (2, 6))]
    _clear_memos()
    points = [(data, s) for data in fields for s in range(41, 501, 46)]
    assert len({(data.q, s) for data, s in points}) == 50
    for data, s in points:
        for count, cls in ALL_COUNTS:
            count(data, s, cls)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == _POWER_MEMO_SIZE
        assert info.currsize <= _POWER_MEMO_SIZE


def test_memo_memory_at_the_output_cap():
    # the worst case the memo docstring states: both memos full of powers for
    # counts of up to 10^5 digits, under 1 MB together (of q = 4, 7, 49, 97,
    # 997 and 999979, q = 7 fills them the most, about 0.7 MB)
    data = cubic_data(make_field(7))
    q, c = data.q, data.c
    s_values = [_MAX_OUTPUT_DIGITS - 3 * i for i in range(_POWER_MEMO_SIZE)]
    _clear_memos()
    for s in s_values:
        count_diagonal(data, s, CubicClass.C1)
    for s in s_values:  # q^m gives way to the largest powers of q
        _q_power(q, s - 1)
    before = [memo.cache_info() for memo in MEMOS]
    held = sum(sys.getsizeof(r) for s in s_values for r in _cube_power((s - 1) // 3, q, c))
    held += sum(sys.getsizeof(_q_power(q, s - 1)) for s in s_values)
    # every value measured is one the memos hold
    assert [memo.cache_info().misses for memo in MEMOS] == [info.misses for info in before]
    assert _cube_power.cache_info().currsize == _q_power.cache_info().currsize == _POWER_MEMO_SIZE
    assert held < 1 << 20
