"""Ground truth: exact brute-force counting and numeric character sums.

The exact side counts zeros by dynamic programming over the additive group:
the distribution of x_1^3 + ... + x_s^3 is the s-fold additive convolution of
the cube histogram, O(s * q^2) integer operations and bit-identical however
it is partitioned.  The distribution for s is one convolution step from the
one for s - 1, and each is built once per (field, s) and cached, like the
tables below.  It is deliberately simpler than the closed forms it checks,
and is cross-checked in turn against naive q^s enumeration on tiny fields.

The numeric side evaluates the additive character psi(x) = exp(2*pi*i*Tr(x)/p)
and the cubic character in double precision to confirm the analytic
identities the closed forms rest on (Gauss-sum modulus, cubed-Gauss-sum
decomposition, the cubic satisfied by the power sums S_h, orthogonality).
Tolerances are chosen far below the smallest genuine signal, which is of
order q^(3/2).

Both sides work on base-p element codes through per-field tables built once
from FieldElement arithmetic: the antilog exp[i] = code of g^i, its inverse
log (Lidl-Niederreiter, *Finite Fields*, ch. 9), the trace and psi.  Products
of units become index sums, g^a * g^b = exp[(a + b) mod (q - 1)], so no
character sum multiplies field elements.  The oracle imports nothing from
``counting`` or ``constants``, so it stays independent of the closed forms it
checks.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, IntegrityError, ResourceError
from .fields import FieldDescriptor, FieldElement

#: Default caps for the brute-force enumerations; callers may raise them
#: explicitly when they accept the cost.
MAX_Q = 128
MAX_S = 8

_OMEGA_C = complex(-0.5, math.sqrt(3.0) / 2.0)
#: chi(g^i) = w^(i mod 3): the cubic character with value w at the generator.
_CHI_BY_INDEX = (1 + 0j, _OMEGA_C, _OMEGA_C * _OMEGA_C)


class _Tables(NamedTuple):
    """Per-field tables on base-p element codes."""

    exp: tuple[int, ...]  # exp[i] = code of g^i, 0 <= i < q - 1
    log: tuple[int | None, ...]  # log[exp[i]] = i; None at code 0
    trace: tuple[int, ...]  # trace[code] = Tr(x) in [0, p)
    psi: tuple[complex, ...]  # psi[code] = exp(2*pi*i*Tr(x)/p)


@lru_cache(maxsize=64)
def _tables(field: FieldDescriptor) -> _Tables:
    """The field's tables, from FieldElement arithmetic only: q - 1
    multiplications by g and the traces of the k basis elements t^j.

    The trace of every other code follows by linearity.  Raises
    IntegrityError unless exp hits every nonzero code exactly once.
    """
    p, q = field.p, field.q
    exp = []
    x = field.one
    for _ in range(q - 1):
        exp.append(int(x))
        x = x * field.g
    if sorted(exp) != list(range(1, q)):
        # the walk x -> x*g repeats from its first repeated value on, so the
        # number of distinct powers is the number of steps before it repeats
        raise IntegrityError(
            f"the exp walk repeats the powers of g = {field.g} after {len(set(exp))} steps "
            f"(the order of g), but fields accepted g as a generator of order q - 1 = {q - 1} of F_{q}"
        )
    log: list[int | None] = [None] * q
    for i, code in enumerate(exp):
        log[code] = i

    # trace of the code c_0 + c_1*p + ... is sum of c_j * Tr(t^j), one digit at a time
    trace = [0]
    for j in range(field.k):
        basis_trace = field.element_from_int(p ** j).trace()
        trace = [(t + c * basis_trace) % p for c in range(p) for t in trace]
    unit_roots = [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]
    psi = tuple(unit_roots[t] for t in trace)
    return _Tables(tuple(exp), tuple(log), tuple(trace), psi)


def _power_codes(tables: _Tables, start: int, step: int) -> Iterator[int]:
    """Codes of g^(start + step*i) for i = 0 .. q - 2: the nonzero values of
    h * y^step, h = g^start, as y runs over the units."""
    exp = tables.exp
    m = len(exp)
    return (exp[(start + step * i) % m] for i in range(m))


class CubeHistogram(NamedTuple):
    """counts[int(v)] = number of cube roots of v in the field."""

    field: FieldDescriptor
    counts: tuple[int, ...]

    def count_of(self, v: FieldElement) -> int:
        return self.counts[int(v)]

    def items(self) -> Iterator[tuple[FieldElement, int]]:
        for code, count in enumerate(self.counts):
            yield self.field.element_from_int(code), count


def _scaled_cube_counts(field: FieldDescriptor, start: int) -> list[int]:
    """counts[v] = number of x with h * x^3 = v, h = g^start."""
    counts = [0] * field.q
    counts[0] = 1  # x = 0
    for code in _power_codes(_tables(field), start, 3):
        counts[code] += 1
    return counts


def cube_histogram(field: FieldDescriptor) -> CubeHistogram:
    return CubeHistogram(field=field, counts=tuple(_scaled_cube_counts(field, 0)))


@lru_cache(maxsize=32)
def _add_codes(field: FieldDescriptor) -> list[list[int]]:
    """Addition on base-p element codes, tabulated once per field.

    FieldElement addition is coefficient-wise mod p, so digit j of a code sum
    is (a_j + b_j) mod p; the table grows one digit at a time, like the trace.
    """
    p = field.p
    add = [[0]]
    for j in range(field.k):
        # codes below p^(j+1): a = a_low + ah * p^j, b = b_low + bh * p^j
        step = p ** j
        add = [
            [row[b_low] + (ah + bh) % p * step for bh in range(p) for b_low in range(step)]
            for ah in range(p) for row in add
        ]
    return add


def _check_cap(field: FieldDescriptor, s: int, max_q: int, max_s: int) -> None:
    if field.q > max_q or s > max_s:
        raise ResourceError(
            f"brute force over q = {field.q}, s = {s} exceeds the cap (q <= {max_q}, s <= {max_s})"
        )


@lru_cache(maxsize=256)  # a suite's (field, s) pairs, each a tuple of q counts
def _distribution(field: FieldDescriptor, s: int) -> tuple[int, ...]:
    """Counts of x_1^3 + ... + x_s^3 = v for every v, indexed by int(v): the
    cube histogram for s = 1, else dist(s - 1) convolved with it once.

    :func:`diagonal_count_vector` asks for dist(s - 1) first, so it is cached
    when dist(s) is built and each (field, s) is convolved once.
    """
    hist = cube_histogram(field).counts
    if s == 1:
        return hist
    prev = _distribution(field, s - 1)
    support = [(code, count) for code, count in enumerate(hist) if count]
    q = field.q
    dist = [0] * q
    if field.k == 1:
        for v, dv in enumerate(prev):
            if dv:
                for w, hw in support:
                    dist[(v + w) % q] += dv * hw
        return tuple(dist)
    add = _add_codes(field)
    for v, dv in enumerate(prev):
        if dv:
            row = add[v]
            for w, hw in support:
                dist[row[w]] += dv * hw
    return tuple(dist)


def diagonal_count_vector(
    field: FieldDescriptor, s: int, *, max_q: int = MAX_Q, max_s: int = MAX_S
) -> list[int]:
    """Exact counts of x_1^3 + ... + x_s^3 = v for every v, indexed by int(v).

    The caps are checked before the cache is read, and every call returns a
    new list.
    """
    if s < 1:
        raise DomainError("need at least one variable")
    _check_cap(field, s, max_q, max_s)
    # from s = 1 up: a step not cached finds its predecessor cached, so the
    # build never recurses more than one level
    for t in range(1, s + 1):
        dist = _distribution(field, t)
    return list(dist)


def brute_diagonal(
    field: FieldDescriptor, s: int, z: FieldElement, *, max_q: int = MAX_Q, max_s: int = MAX_S
) -> int:
    """Number of zeros of x_1^3 + ... + x_s^3 = z by exact convolution."""
    return diagonal_count_vector(field, s, max_q=max_q, max_s=max_s)[int(z)]


def brute_twisted(
    field: FieldDescriptor, s: int, y: FieldElement, *, max_q: int = MAX_Q, max_s: int = MAX_S
) -> int:
    """Number of zeros of x_1^3 + ... + x_{s-1}^3 + y * x_s^3 = 0, y nonzero."""
    if y.is_zero():
        raise DomainError("the scaled variable's coefficient must be nonzero")
    if s < 2:
        raise DomainError("twisted counts need at least two variables")
    _check_cap(field, s, max_q, max_s)
    dist = diagonal_count_vector(field, s - 1, max_q=max_q, max_s=max_s)
    log = _tables(field).log
    # balance[v] = number of x with v + y*x^3 = 0, i.e. with (-y)*x^3 = v;
    # -1 has code p - 1 (its coefficient vector is (p - 1, 0, ..., 0))
    balance = _scaled_cube_counts(field, log[int(y)] + log[field.p - 1])
    return sum(dv * balance[v] for v, dv in enumerate(dist) if dv)


def brute_diagonal_naive(field: FieldDescriptor, s: int, z: FieldElement) -> int:
    """Literal q^s enumeration; the cross-check for the convolution oracle."""
    if field.q ** s > 2 ** 16:
        raise ResourceError(f"naive enumeration over {field.q}^{s} tuples refused")
    cubes = [x ** 3 for x in field.elements()]
    zero = field.zero

    def recurse(depth: int, acc: FieldElement) -> int:
        if depth == 0:
            return 1 if acc == z else 0
        return sum(recurse(depth - 1, acc + c) for c in cubes)

    return recurse(s, zero)


# ---------------------------------------------------------------------------
# numeric character sums


def _chi_table(field: FieldDescriptor) -> list[complex]:
    """chi(x) for every x, indexed by int(x); chi(0) = 0."""
    log = _tables(field).log
    return [0j] + [_CHI_BY_INDEX[log[code] % 3] for code in range(1, field.q)]


def _psi_sum(psi: tuple[complex, ...], codes: Iterable[int]) -> complex:
    """psi(0) plus psi at each of the given codes."""
    return psi[0] + sum(psi[code] for code in codes)


def gauss_sum_numeric(field: FieldDescriptor) -> complex:
    """G(chi, psi) = sum over nonzero x of chi(x) * psi(x), double precision."""
    if field.q % 3 != 1:
        raise DomainError(f"q = {field.q} = {field.q % 3} (mod 3) has no cubic character")
    psi = _tables(field).psi
    chi = _chi_table(field)
    return sum(chi[code] * psi[code] for code in range(1, field.q))


def conjugate_gauss_sum_numeric(field: FieldDescriptor) -> complex:
    """G(conj(chi), psi), evaluated directly rather than by conjugation."""
    if field.q % 3 != 1:
        raise DomainError(f"q = {field.q} = {field.q % 3} (mod 3) has no cubic character")
    psi = _tables(field).psi
    chi = _chi_table(field)
    return sum(chi[code].conjugate() * psi[code] for code in range(1, field.q))


def cubic_exp_sum_numeric(field: FieldDescriptor, h: FieldElement) -> complex:
    """S_h = sum over all y of psi(h * y^3); h nonzero."""
    if h.is_zero():
        raise DomainError("S_h is used with nonzero h")
    tables = _tables(field)
    # y = 0 gives psi(0); y = g^i gives psi(g^(log h + 3i))
    return _psi_sum(tables.psi, _power_codes(tables, tables.log[int(h)], 3))


def jacobi_sum_numeric(field: FieldDescriptor) -> complex:
    """G(chi, psi)^2 / G(conj(chi), psi) over a prime field: the numeric route
    to the cubic Jacobi sum."""
    if field.k != 1:
        raise DomainError("the numeric Jacobi route is taken over prime fields")
    g = gauss_sum_numeric(field)
    g_conj = conjugate_gauss_sum_numeric(field)
    return g * g / g_conj


class OrthogonalityReport(NamedTuple):
    ok: bool
    max_error: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.ok


def orthogonality_check(field: FieldDescriptor, tolerance: float = 1e-6) -> OrthogonalityReport:
    """sum over a of psi(a*x) must be q at x = 0 and 0 elsewhere."""
    tables = _tables(field)
    q = field.q
    worst = 0.0
    for code in range(q):
        # a = 0 gives psi(0); a = g^i gives a*x = 0 at x = 0, else g^(log x + i)
        products = repeat(0, q - 1) if code == 0 else _power_codes(tables, tables.log[code], 1)
        total = _psi_sum(tables.psi, products)
        worst = max(worst, abs(total - (q if code == 0 else 0)))
    return OrthogonalityReport(ok=worst <= tolerance, max_error=worst, tolerance=tolerance)
