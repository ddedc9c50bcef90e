"""Ground truth: exact brute-force counting and exact character sums.

The counting side counts zeros by dynamic programming over the additive
group: the distribution of x_1^3 + ... + x_s^3 is the s-fold additive
convolution of the cube histogram, O(s * q^2) integer operations and
bit-identical however it is partitioned.  The distribution for s is one
convolution step from the one for s - 1, and each is built once per
(field, s) and cached, like the tables below.  It is deliberately simpler
than the closed forms it checks, and is cross-checked in turn against naive
q^s enumeration on tiny fields.

The character-sum side tallies (ind x mod 3, Tr x) into exact elements of
Z[w][zeta_p] (:class:`CyclotomicInt`): the Gauss sums, the periods S_h and
the orthogonality sums, with psi(x) = zeta_p^Tr(x) and chi(g) = w.  So the
analytic identities the closed forms rest on are integer equalities, with
no tolerance (Berndt-Evans-Williams, *Gauss and Jacobi Sums*, ch. 2-3).

Both sides work on base-p element codes through per-field tables built once
from FieldElement arithmetic: the antilog exp[i] = code of g^i, its inverse
log (Lidl-Niederreiter, *Finite Fields*, ch. 9) and the trace.  Products of
units become index sums, g^a * g^b = exp[(a + b) mod (q - 1)], so no
character sum multiplies field elements.  The oracle imports nothing from
``counting`` or ``constants``, so it stays independent of the closed forms it
checks.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add, sub
from typing import Iterable, NamedTuple

from .errors import DomainError, IntegrityError, ResourceError
from .fields import FieldDescriptor, FieldElement

#: Caps for the brute-force enumerations; a caller may raise the cap on q
#: (``max_q=``) explicitly when it accepts the cost.
MAX_Q = 128
MAX_S = 8


class _Tables(NamedTuple):
    """Per-field tables on base-p element codes."""

    exp: tuple[int, ...]  # exp[i] = code of g^i, 0 <= i < q - 1
    log: tuple[int | None, ...]  # log[exp[i]] = i; None at code 0
    trace: tuple[int, ...]  # trace[code] = Tr(x) in [0, p)


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
    return _Tables(tuple(exp), tuple(log), tuple(trace))


def _power_codes(tables: _Tables, start: int, step: int) -> tuple[tuple[int, ...], int]:
    """(codes, e): the codes of g^(start + step*i), i = 0 .. q - 2, the values
    of h * y^step, h = g^start, as y runs over the units, are those in codes,
    each taken e times: e = gcd(step, q - 1), and the exponents start +
    step*i (mod q - 1) are those congruent to start (mod e)."""
    exp = tables.exp
    e = gcd(step, len(exp))
    return exp[start % e::e], e


def cube_histogram(field: FieldDescriptor) -> tuple[int, ...]:
    """counts[int(v)] = number of cube roots of v in the field."""
    counts = [0] * field.q
    counts[0] = 1  # x = 0
    codes, e = _power_codes(_tables(field), 0, 3)
    for code in codes:
        counts[code] = e
    return tuple(counts)


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


def _check_cap(field: FieldDescriptor, s: int, max_q: int) -> None:
    if field.q > max_q or s > MAX_S:
        raise ResourceError(
            f"brute force over q = {field.q}, s = {s} exceeds the cap (q <= {max_q}, s <= {MAX_S})"
        )


@lru_cache(maxsize=256)  # a suite's (field, s) pairs, each a tuple of q counts
def _distribution(field: FieldDescriptor, s: int) -> tuple[int, ...]:
    """Counts of x_1^3 + ... + x_s^3 = v for every v, indexed by int(v): the
    cube histogram for s = 1, else dist(s - 1) convolved with it once.

    :func:`diagonal_count_vector` asks for dist(s - 1) first, so it is cached
    when dist(s) is built and each (field, s) is convolved once.
    """
    if s == 1:
        return cube_histogram(field)
    prev = _distribution(field, s - 1)
    support = [(code, count) for code, count in enumerate(_distribution(field, 1)) if count]
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


def diagonal_count_vector(field: FieldDescriptor, s: int, *, max_q: int = MAX_Q) -> list[int]:
    """Exact counts of x_1^3 + ... + x_s^3 = v for every v, indexed by int(v).

    The caps are checked before the cache is read, and every call returns a
    new list.
    """
    if s < 1:
        raise DomainError("need at least one variable")
    _check_cap(field, s, max_q)
    # from s = 1 up: a step not cached finds its predecessor cached, so the
    # build never recurses more than one level
    for t in range(1, s + 1):
        dist = _distribution(field, t)
    return list(dist)


def brute_twisted(field: FieldDescriptor, s: int, y: FieldElement, *, max_q: int = MAX_Q) -> int:
    """Number of zeros of x_1^3 + ... + x_{s-1}^3 + y * x_s^3 = 0, y nonzero."""
    if y.is_zero():
        raise DomainError("the scaled variable's coefficient must be nonzero")
    if s < 2:
        raise DomainError("twisted counts need at least two variables")
    _check_cap(field, s, max_q)
    dist = diagonal_count_vector(field, s - 1, max_q=max_q)
    tables = _tables(field)
    # x_s = 0 leaves x_1^3 + ... = 0; a unit x_s leaves x_1^3 + ... = (-y)*x_s^3,
    # and -1 has code p - 1 (its coefficient vector is (p - 1, 0, ..., 0))
    start = tables.log[int(y)] + tables.log[field.p - 1]
    codes, e = _power_codes(tables, start, 3)
    return dist[0] + e * sum(map(dist.__getitem__, codes))


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
# exact character sums in Z[w][zeta_p]


def _cyclic_product(x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
    """x * y in Z[z]/(z^p - 1), p = len(x), up to a multiple of 1 + z + ... +
    z^(p-1), zero at z = zeta_p: the factors, shifted by such multiples to
    nonnegative coordinates, are packed into one int each and multiplied,
    and the product's coefficients folded back (Kronecker substitution)."""
    p = len(x)
    x_low, y_low = min(x), min(y)
    x, y = [c - x_low for c in x], [c - y_low for c in y]
    bits = (p * max(x) * max(y)).bit_length() or 1
    n = sum(c << bits * j for j, c in enumerate(x)) * sum(c << bits * j for j, c in enumerate(y))
    mask = (1 << bits) - 1
    return [(n >> bits * j & mask) + (n >> bits * (j + p) & mask) for j in range(p)]


class CyclotomicInt(NamedTuple):
    """The sum over j < p of (a[j] + b[j]*w) * zeta^j, an element of
    Z[w][zeta_p] with w = exp(2*pi*i/3), zeta = exp(2*pi*i/p) and p != 3.

    For p != 3, Q(w) and Q(zeta_p) are linearly disjoint, so the sum is zero
    exactly when its p coordinates in Z[w] are all equal (1 + zeta + ... +
    zeta^(p-1) = 0).  Coordinate p - 1 is kept zero, one representative per
    element, so == compares coordinates.  +, * and == take an int or an
    EisensteinInt, on the right, as a constant."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def _lift(self, other: object) -> CyclotomicInt | None:
        if isinstance(other, CyclotomicInt):
            if len(other.a) != len(self.a):
                raise DomainError(f"Z[w][zeta_p] elements with p = {len(self.a)} and {len(other.a)} do not combine")
            return other
        if isinstance(other, int):
            other = (other, 0)
        if not isinstance(other, tuple):
            return None
        zeros = (0,) * (len(self.a) - 1)
        return CyclotomicInt((other[0], *zeros), (other[1], *zeros))  # an EisensteinInt c + d*w

    def __add__(self, other: object) -> CyclotomicInt:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return CyclotomicInt(tuple(map(add, self.a, other.a)), tuple(map(add, self.b, other.b)))

    def __mul__(self, other: object) -> CyclotomicInt:
        if isinstance(other, int):
            other = (other, 0)
        if isinstance(other, tuple) and not isinstance(other, CyclotomicInt):  # c + d*w, coordinatewise
            c, d = other
            return CyclotomicInt(tuple([x * c - y * d for x, y in zip(*self)]),
                                 tuple([x * d + y * (c - d) for x, y in zip(*self)]))
        other = self._lift(other)
        if other is None:
            return NotImplemented
        (a, b), (c, d) = self, other
        ac = _cyclic_product(a, c)
        if not any(b) and not any(d):  # both in Z[zeta_p], as the S_h are
            return _cyclotomic(ac, [0] * len(a))
        # (A + B*w)(C + D*w) = (AC - BD) + ((A + B)(C + D) - AC - 2BD)*w, w^2 = -1 - w
        bd = _cyclic_product(b, d)
        mixed = _cyclic_product(tuple(map(add, a, b)), tuple(map(add, c, d)))
        return _cyclotomic(list(map(sub, ac, bd)), [m - u - 2 * v for m, u, v in zip(mixed, ac, bd)])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        other = self._lift(other)
        return NotImplemented if other is None else tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def conjugate(self) -> CyclotomicInt:
        """Complex conjugate: w -> w^2 = -1 - w and zeta^j -> zeta^(-j)."""
        a, b = self.a[:1] + self.a[:0:-1], self.b[:1] + self.b[:0:-1]
        return _cyclotomic(list(map(sub, a, b)), [-y for y in b])


def _cyclotomic(a: list[int], b: list[int]) -> CyclotomicInt:
    """a[j] + b[j]*w at zeta^j, less the multiple a[p-1] + b[p-1]*w of 1 + zeta + ... + zeta^(p-1)."""
    a_last, b_last = a[-1], b[-1]
    return CyclotomicInt(tuple([x - a_last for x in a]), tuple([y - b_last for y in b]))


def gauss_sum(field: FieldDescriptor, e: int = 1) -> CyclotomicInt:
    """G(chi^e, psi) = sum over nonzero x of w^(e * ind x) * zeta^Tr(x):
    G(chi, psi) for e = 1, and G(conj(chi), psi), tallied directly rather
    than by conjugation, for e = 2."""
    if field.q % 3 != 1:
        raise DomainError(f"q = {field.q} = {field.q % 3} (mod 3) has no cubic character")
    tables = _tables(field)
    # tally[r][t] = number of x = g^i, e*i = r (mod 3), with Tr(x) = t
    tally = [[0] * field.p for _ in range(3)]
    for i, code in enumerate(tables.exp):
        tally[e * i % 3][tables.trace[code]] += 1
    n0, n1, n2 = tally
    # n0 + n1*w + n2*w^2 = (n0 - n2) + (n1 - n2)*w
    return _cyclotomic(list(map(sub, n0, n2)), list(map(sub, n1, n2)))


def _psi_sum(field: FieldDescriptor, codes: Iterable[int], e: int) -> CyclotomicInt:
    """psi(0) plus e times psi at each of the given codes: one count per trace value."""
    p = field.p
    if p == 3:
        raise DomainError("over characteristic 3, zeta_3 = w and Z[w][zeta_3] coordinates are not unique")
    trace = _tables(field).trace
    counts = [1] + [0] * (p - 1)
    for code in codes:
        counts[trace[code]] += e
    last = counts[-1]
    return CyclotomicInt(tuple([c - last for c in counts]), (0,) * p)


def cubic_exp_sum(field: FieldDescriptor, h: FieldElement) -> CyclotomicInt:
    """S_h = sum over all y of psi(h * y^3); h nonzero."""
    if h.is_zero():
        raise DomainError("S_h is used with nonzero h")
    tables = _tables(field)
    # y = 0 gives psi(0); y = g^i gives psi(g^(log h + 3i))
    return _psi_sum(field, *_power_codes(tables, tables.log[int(h)], 3))


def orthogonality_sum(field: FieldDescriptor, x: FieldElement) -> CyclotomicInt:
    """The sum over all a of psi(a * x): q at x = 0 and 0 elsewhere."""
    if x.is_zero():  # a*x = 0 for each of the q - 1 units a
        return _psi_sum(field, (0,), field.q - 1)
    tables = _tables(field)
    # a = 0 gives psi(0); a = g^i gives psi(g^(log x + i))
    return _psi_sum(field, *_power_codes(tables, tables.log[int(x)], 1))
