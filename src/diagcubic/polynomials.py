"""Polynomials over F_p: Ben-Or's irreducibility test, the cap on its cost,
and the resultant.

Polynomials are little-endian coefficient sequences (constant term first)
with entries in [0, p).  :func:`ben_or` decides whether a monic f of
degree k is irreducible in about k^2 * (k + log2 p) coefficient operations
(Ben-Or, FOCS 1981; Shoup, *A Computational Introduction to Number Theory
and Algebra*, ch. 20), on the one product and power mod f of the fields.
One Euclid, :func:`_resultant`, serves both Ben-Or's gcd test and the norm
of a field element, Res(f, x).  :mod:`diagcubic.fields` imports this
module only when it builds an extension field, so a prime-field call never
loads it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ResourceError
from .fields import _mul_mod, _pow_mod

#: Largest cost the irreducibility tests of one field may take, in the units
#: of :func:`irreducibility_cost`, about k^2 * (k + log2 p) coefficient
#: operations per Ben-Or test of a degree-k polynomial over F_p.  A given
#: modulus needs one test; the scan for the canonical one charges each
#: candidate what its test used (:func:`ben_or`), at most one full test.
#: Either stays within about 0.3 s.
MAX_IRREDUCIBILITY_COST = 4 * 10**6


def _trim(poly: list[int]) -> list[int]:
    """Drop zero leading coefficients; the zero polynomial becomes []."""
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _resultant(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Res(a, b) mod p by Euclid, for a of positive degree; Res(a, 0) = 0.

    Each step divides a by b with remainder r and uses
    Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * Res(b, r),
    ending at Res(a, c) = c^(deg a) for a nonzero constant c.  It is nonzero
    exactly when gcd(a, b) = 1, and for a monic a it is the product of b
    over the roots of a, so Res(f, x) is the norm of the element x of
    F_p[t]/(f).
    """
    a, b = _trim(list(a)), _trim(list(b))
    res = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        inv = pow(b[-1], -1, p)
        for i in range(da, db - 1, -1):  # a mod b, top term first
            c = a[i] * inv % p
            if c:
                for j, bj in enumerate(b, i - db):
                    a[j] -= c * bj
        r = _trim([c % p for c in a[:db]])
        if not r:
            return 0
        res = res * pow(b[-1], da - len(r) + 1, p) * (-1 if da & db & 1 else 1) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p if b else 0


def irreducibility_cost(p: int, k: int) -> int:
    """Cost of one Ben-Or test of a degree-k polynomial over F_p, in
    coefficient operations: about k + log2 p products of two polynomials
    of degree < k (log2 p for x^p mod f, k for the Frobenius table, two per
    step for the k/2 steps), each k^2 operations plus a fixed overhead that
    costs about as much as 64 of them in this implementation.  A cost above
    ``MAX_IRREDUCIBILITY_COST`` is refused with a ResourceError, before
    any work."""
    cost = (k * k + 64) * (k + p.bit_length())
    if cost > MAX_IRREDUCIBILITY_COST:
        raise ResourceError(
            f"testing a degree-{k} polynomial over F_{p} for irreducibility costs about "
            f"{cost} steps, above the cap of {MAX_IRREDUCIBILITY_COST}"
        )
    return cost


def ben_or(f: Sequence[int], p: int) -> tuple[bool, int]:
    """(whether f is irreducible, what the test cost) for f monic of degree
    k >= 1 over F_p.  f is irreducible iff gcd(x^(p^i) - x, f) = 1 for
    i = 1 .. k/2, since a reducible f has an irreducible factor of some
    degree i <= k/2, which divides x^(p^i) - x.

    The Frobenius map h -> h^p is F_p-linear, so once x^p mod f is known
    the table of x^(p*j) mod f (j < k) gives each next power x^(p^(i+1))
    in one matrix-vector product.  The table is built only for an f that
    passes the step i = 1, that is, has no root in F_p.

    The cost counts 2k^2 + 64 coefficient operations for each step the test
    ran: a step of x^p mod f (squaring or times x), a product of the table,
    a matrix-vector product or a gcd.  A product mod f takes k^2
    multiplications and up to k^2 more to reduce it; at k^2 + 64 a step,
    scans over small p at large k ran longer than the worst refusal of the
    full-test estimate :func:`irreducibility_cost`.
    """
    k = len(f) - 1
    if k < 2:
        return k == 1, 0
    if f[0] == 0:
        return False, 0  # x divides f
    frob = h = _pow_mod((0, 1) + (0,) * (k - 2), p, f, p)  # x^p mod f
    steps = p.bit_length() + bin(p).count("1") - 2
    table = None
    for i in range(1, k // 2 + 1):
        if i > 1:
            if table is None:
                table = [[1] + [0] * (k - 1), frob]
                for _ in range(2, k):
                    table.append(_mul_mod(table[-1], frob, f, p))
                steps += k - 2
            acc = [0] * k
            for hj, row in zip(h, table):
                if hj:
                    for j, r in enumerate(row):
                        acc[j] += hj * r
            h = [c % p for c in acc]
            steps += 1
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        steps += 1
        if not _resultant(f, h_minus_x, p):  # gcd(f, h - x) != 1
            return False, (2 * k * k + 64) * steps
    return True, (2 * k * k + 64) * steps
