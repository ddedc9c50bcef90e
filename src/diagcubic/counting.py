"""Closed-form counts of zeros of diagonal cubic equations over F_q.

Let N_s(z) be the number of solutions of x_1^3 + ... + x_s^3 = z and T_s(y)
the number of solutions of x_1^3 + ... + x_{s-1}^3 + y*x_s^3 = 0 with y
non-cubic.  For q = 1 (mod 3) the deviation u_s(z) = N_s(z) - q^(s-1)
satisfies the three-term recurrence

    u_s = 3q * u_{s-2} + qc * u_{s-3}        (s >= 4),

equivalently sum_s u_s x^s is a rational function with denominator
1 - 3q x^2 - qc x^3.  The seeds, with (c, d, theta) from the constants
module and all half-integer expressions combined into exact integers:

    target 0:            w1 = 0,   w2 = 2(q-1),                w3 = c(q-1)
    nonzero cube (C0):   u1 = 2,   u2 = c - 2,                 u3 = 6q - c
    non-cube, class C1:  u1 = -1,  u2 = (-4 - c + 9d*theta)/2, u3 = -3q - c
    non-cube, class C2:  u1 = -1,  u2 = (-4 - c - 9d*theta)/2, u3 = -3q - c

The twisted counts follow from T_s(y) = N_{s-1}(0) + (q-1) N_{s-1}(y): the
deviation v_i = T_{i+1}(y) - q^i equals w_i + (q-1) u_i(y) term by term, with
w_i = N_i(0) - q^(i-1), so it obeys the same recurrence from the seeds
v_i = w_i + (q-1) u_i (i = 1, 2, 3), and theta enters the twisted counts only
through the diagonal seeds.

A single count N_s or T_s is the s-th term of that order-3 recurrence and is
computed in O(log s) multiplications (Fiduccia, "An efficient formula for
linear recurrences", SIAM J. Comput. 1985): for x^(s-1) = r0 + r1*x + r2*x^2
modulo the characteristic polynomial f = x^3 - 3q*x - qc, u_s = r0*u_1 +
r1*u_2 + r2*u_3.  As x^3 = q(3x + c) mod f, x^(3m) = q^m (3x + c)^m, so with
s - 1 = 3m + r the power is q^m * x^r * (3x + c)^m: square-and-multiply
raises 3x + c to the power m, r < 3 steps multiply by x, and q^m multiplies
the final sum.  The exponent is a third of s - 1, and the coefficients have
about (s - 1)(1 + log2(q)/6) bits against (s - 1)(1 + log2(q)/2) for those
of x^(s-1), 2.4 times fewer for q = 13^4 and up to three times: the Gauss
sums carry a third of the p-adic valuation of q (Stickelberger).  Repeated
counts at the same (q, c, s) share the power (3x + c)^m and the powers of q
through a bounded memo: the four targets of N_s take one power, and so do
both classes of T_s, the same one as N_s unless 3 divides s - 1.

A series window of n terms costs n recurrence steps plus n multiplications
by q (the running power q^(s-1) is carried along the walk), with no
per-term power.

For q = 2 (mod 3) the cube map is a bijection and every count is q^(s-1).  So
it is in characteristic 3, where cubing is the Frobenius automorphism; see
:func:`bijective_count`.

Class labels C1/C2 are relative to the field's chosen generator (swapping g
for a generator of the other coset swaps them, and flips theta with them), so
counts keyed to a concrete element z are generator-independent.

The witnesses for these counts (the closed-form T_3 and the mod-4 sign rule)
live in :mod:`diagcubic.verify`, next to the checks that run them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

from .constants import CubicData, delta
from .errors import DomainError, IntegrityError
from .fields import NONCUBIC_CLASSES, CubicClass


class SeriesWindow(NamedTuple):
    """The first n coefficients N_1..N_n of one target's counting series."""

    target: CubicClass
    coefficients: tuple[int, ...]
    constants: CubicData


def excess_seeds(data: CubicData, cls: CubicClass) -> tuple[int, int, int]:
    """Seeds (u_1, u_2, u_3) of the deviation u_s = N_s - q^(s-1) for any
    target class, zero included.  Only the non-cubic seeds read theta, the
    exact one of the constants; a half-integer second seed would mean the
    constants are wrong, and is refused."""
    c, d, q = data.c, data.d, data.q
    if cls is CubicClass.ZERO:
        return 0, 2 * (q - 1), c * (q - 1)
    if cls is CubicClass.C0:
        return 2, c - 2, 6 * q - c
    numerator = -4 - c - 9 * d * delta(data, cls)
    if numerator % 2 != 0:
        raise IntegrityError(f"second seed {numerator}/2 is not an integer for q = {q}")
    return -1, numerator // 2, -3 * q - c


def _recurrence(seeds: tuple[int, int, int], q: int, c: int) -> Iterator[int]:
    """Yield the recurrence x_s = 3q x_{s-2} + qc x_{s-3} from three seeds."""
    x1, x2, x3 = seeds
    yield x1
    yield x2
    yield x3
    three_q, qc = 3 * q, q * c
    while True:
        x1, x2, x3 = x2, x3, three_q * x2 + qc * x1
        yield x3


def _window(seeds: tuple[int, int, int], q: int, c: int, q_power: int, n: int) -> tuple[int, ...]:
    """n terms q_power * q^i + x_{i+1} (i = 0..n-1) of the recurrence from
    seeds, carrying the power of q along the walk."""
    terms = []
    for excess in islice(_recurrence(seeds, q, c), n):
        terms.append(q_power + excess)
        q_power *= q
    return tuple(terms)


#: Entries kept by each of the power memos :func:`_cube_power` and
#: :func:`_q_power`.
_POWER_MEMO_SIZE = 8


@lru_cache(maxsize=_POWER_MEMO_SIZE)
def _cube_power(m: int, q: int, c: int) -> tuple[int, int, int]:
    """(r0, r1, r2) with (3x + c)^m = r0 + r1*x + r2*x^2 modulo
    x^3 - 3q*x - qc, by left-to-right square-and-multiply.

    Memoised, as is :func:`_q_power`: the power does not depend on the seeds,
    so the four targets of N_s and the two classes of T_s at one (q, c, s)
    share it.  Each memo keeps at most _POWER_MEMO_SIZE entries, each of at
    most three integers no longer than the largest count requested; at the
    CLI's output cap of 10^5 digits both memos together hold under 1 MB.
    """
    three_q, qc = 3 * q, q * c
    nine_q, three_qc = 3 * three_q, 3 * qc
    r0, r1, r2 = 1, 0, 0
    for bit in bin(m)[2:]:
        # (r0 + r1 x + r2 x^2)^2 = p0 + p1 x + p2 x^2 + p3 x^3 + p4 x^4,
        # reduced with x^3 = 3q x + qc and x^4 = 3q x^2 + qc x
        p0, p1, p2 = r0 * r0, 2 * r0 * r1, r1 * r1 + 2 * r0 * r2
        p3, p4 = 2 * r1 * r2, r2 * r2
        r0, r1, r2 = p0 + qc * p3, p1 + three_q * p3 + qc * p4, p2 + three_q * p4
        if bit == "1":  # times 3x + c
            r0, r1, r2 = c * r0 + three_qc * r2, 3 * r0 + c * r1 + nine_q * r2, 3 * r1 + c * r2
    return r0, r1, r2


@lru_cache(maxsize=_POWER_MEMO_SIZE)
def _q_power(q: int, e: int) -> int:
    """q^e, memoised: q^m in :func:`_term_at` and q^(s-1) in :func:`_count`."""
    return q ** e


def _term_at(n: int, seeds: tuple[int, int, int], q: int, c: int) -> int:
    """x_{n+1} of the recurrence x_s = 3q x_{s-2} + qc x_{s-3} from seeds.

    With f = x^3 - 3q*x - qc its characteristic polynomial, x_{n+1} =
    r0*x_1 + r1*x_2 + r2*x_3 for x^n = r0 + r1*x + r2*x^2 mod f.  Since
    x^3 = q(3x + c) mod f, x^n = q^m * x^r * (3x + c)^m for n = 3m + r, so
    (3x + c)^m is raised by :func:`_cube_power`, then multiplied r < 3 times
    by x, and q^m multiplies the final sum: O(log m) multiplications of
    integers up to three times shorter than those of x^n.
    """
    m, r = divmod(n, 3)
    r0, r1, r2 = _cube_power(m, q, c)
    three_q, qc = 3 * q, q * c
    for _ in range(r):  # times x
        r0, r1, r2 = qc * r2, r0 + three_q * r2, r1
    x1, x2, x3 = seeds
    return _q_power(q, m) * (r0 * x1 + r1 * x2 + r2 * x3)


def _refuse_negative_s(s: int) -> None:
    if s < 0:
        raise DomainError("s must be nonnegative")


def _refuse_short_twisted(s: int) -> None:
    if s < 2:
        raise DomainError("twisted counts need at least two variables")


def _refuse_empty_window(n: int) -> None:
    if n < 1:
        raise DomainError("need at least one coefficient")


def count_diagonal(data: CubicData, s: int, target: CubicClass) -> int:
    """N_s for a target given by its cubic class (CubicClass.ZERO for z = 0).

    s = 0 is the empty-tuple convention (1 for the zero target, else 0),
    provided as plumbing beyond the series proper.
    """
    _refuse_negative_s(s)
    if s == 0:
        return 1 if target is CubicClass.ZERO else 0
    return _count(data, s, s - 1, excess_seeds(data, target), target)


def _count(data: CubicData, s: int, n: int, seeds: tuple[int, int, int], target: CubicClass) -> int:
    """q^(s-1) + x_{n+1} of the recurrence from seeds: N_s for n = s - 1 and
    the diagonal seeds, T_s for n = s - 2 and the twisted ones."""
    value = _q_power(data.q, s - 1) + _term_at(n, seeds, data.q, data.c)
    if value < 0:
        raise IntegrityError(f"negative count {value} for s = {s}, target {target}")
    return value


def bijective_count(q: int, s: int, zero_target: bool) -> int:
    """Counts for q != 1 (mod 3), where cubing is a bijection (for q = 2 (mod 3)
    because gcd(3, q - 1) = 1, in characteristic 3 because it is the Frobenius
    map): q^(s-1) for every target and s >= 1 (s = 0 follows the empty-tuple
    convention)."""
    if q % 3 == 1:
        raise DomainError(f"q = {q} = 1 (mod 3): cubing is not a bijection")
    _refuse_negative_s(s)
    if s == 0:
        return 1 if zero_target else 0
    return q ** (s - 1)


def _twisted_seeds(data: CubicData, y_cls: CubicClass) -> tuple[int, int, int]:
    """Seeds v_i = w_i + (q-1) u_i(y) of v_i = T_{i+1}(y) - q^i, from the
    seeds of the zero target and of the class of y."""
    q = data.q
    zero_seeds = excess_seeds(data, CubicClass.ZERO)
    return tuple(w + (q - 1) * u for w, u in zip(zero_seeds, excess_seeds(data, y_cls)))


def count_twisted(data: CubicData, s: int, y_cls: CubicClass) -> int:
    """T_s for non-cubic y of the given class, via
    T_s(y) = N_{s-1}(0) + (q-1) * N_{s-1}(y)."""
    if y_cls not in NONCUBIC_CLASSES:
        raise DomainError(f"the scaled variable's coefficient must be non-cubic, got {y_cls}")
    _refuse_short_twisted(s)
    return _count(data, s, s - 2, _twisted_seeds(data, y_cls), y_cls)


def diagonal_series(data: CubicData, target: CubicClass, n: int) -> SeriesWindow:
    """First n coefficients N_1..N_n of the counting series for one target,
    generated by the integer recurrence (never by power-series division)."""
    _refuse_empty_window(n)
    coeffs = _window(excess_seeds(data, target), data.q, data.c, 1, n)
    return SeriesWindow(target=target, coefficients=coeffs, constants=data)


def twisted_series(data: CubicData, y_cls: CubicClass, n: int) -> tuple[int, ...]:
    """(T_2, ..., T_{n+1}) for non-cubic y, generated by the integer
    recurrence from the same seeds as :func:`count_twisted`."""
    if y_cls not in NONCUBIC_CLASSES:
        raise DomainError(f"the scaled variable's coefficient must be non-cubic, got {y_cls}")
    _refuse_empty_window(n)
    return _window(_twisted_seeds(data, y_cls), data.q, data.c, data.q, n)
