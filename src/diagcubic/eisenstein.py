"""Exact arithmetic in Z[w], the ring of Eisenstein integers (w = exp(2*pi*i/3)).

Elements are written a + b*w with arbitrary-precision integers a, b, reduced
with w^2 = -1 - w.  Embedded in the complex plane, a + b*w = (2a - b)/2 +
b*sqrt(3)/2 * i, so the doubled real part 2a - b and the sign of the
imaginary part sgn(b) are exact integer quantities.

This ring carries the cubic Jacobi sum over a prime field F_p (p = 1 mod 3),

    J = sum over x in F_p, x not in {0, 1}, of chi(x) * chi(1 - x),

where chi, fixed by a cube root of unity t != 1 mod p, is chi(x) = w^i for
x^((p-1)/3) = t^i (so chi(gen) = w for t = gen^((p-1)/3)).  J has norm p,
its w-coefficient is divisible by 3, and 2J = r1 + 3*sqrt(3)*r2*i defines the
integer pair (r1, r2) with 4p = r1^2 + 27*r2^2, r1 = 1 (mod 3), and the sign
of r2 pinned by the congruence 9*r2 = (2*t + 1)*r1 (mod p).

Production route (:func:`jacobi_sum_cubic`, O(log p)): t^2 + t + 1 = 0, so
3*(2t + 1) is a square root of -27 mod p, and from it the modified
Cornacchia algorithm solves 4p = L^2 + 27*M^2; r1 = +-L is fixed by
r1 = 1 (mod 3) and r2 = +-M by the congruence on the same t (Gauss's cubic
theorem), and J = (r1 + 3*r2)/2 + 3*r2*w.  Its witness, the direct O(p)
sum above (:func:`~diagcubic.verify.jacobi_sum_direct`, p <= 10^7), lives
in ``verify``, which with the tests requires both routes to agree.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .errors import DomainError, IntegrityError
from .ntheory import is_prime


class EisensteinInt(NamedTuple):
    """a + b*w with exact integer coefficients; + and * are Z[w] operations, not the tuple ones."""

    a: int
    b: int

    def __add__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: EisensteinInt | int) -> EisensteinInt:
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        a, b, c, d = self.a, self.b, other.a, other.b
        # (a + b*w)(c + d*w) = ac + (ad + bc)*w + bd*w^2,  w^2 = -1 - w
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    def __rmul__(self, other: int) -> EisensteinInt:
        return self * other

    def __pow__(self, e: int) -> EisensteinInt:
        if e < 0:
            raise DomainError("negative powers leave Z[w]")
        result = EisensteinInt(1, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> EisensteinInt:
        """Complex conjugate: conj(a + b*w) = (a - b) - b*w."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """Algebraic norm a^2 - a*b + b^2 = |a + b*w|^2; multiplicative."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def real_doubled(self) -> int:
        """2 * Re(a + b*w) = 2a - b, exact."""
        return 2 * self.a - self.b

    def imag_sign(self) -> int:
        """Sign of Im(a + b*w) = b*sqrt(3)/2: one of -1, 0, +1."""
        return (self.b > 0) - (self.b < 0)

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}*w"


OMEGA = EisensteinInt(0, 1)
OMEGA2 = EisensteinInt(-1, -1)
EI_ONE = EisensteinInt(1, 0)


def _cornacchia(p: int, root: int) -> tuple[int, int] | None:
    """Nonnegative (L, M) with L^2 + 27*M^2 = 4p, or None if there are none:
    the Euclidean algorithm on (2p, root), for root an odd square root of -27
    mod p, until the remainder falls to at most 2*sqrt(p) (the modified
    Cornacchia algorithm; Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.3).  Takes O(log p) steps."""
    a, b, limit = 2 * p, root, isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    rest, rem = divmod(4 * p - b * b, 27)
    m = isqrt(rest)
    if rem or m * m != rest:
        return None
    return b, m


def jacobi_sum_cubic(p: int, t: int) -> EisensteinInt:
    """Cubic Jacobi sum over F_p with the character fixed by the cube root of
    unity t (chi(x) = w where x^((p-1)/3) = t), in O(log p) steps.

    t^2 + t + 1 = 0 (mod p), checked first, so the odd one of +-3*(2t + 1)
    is a square root of -27 mod p, from which :func:`_cornacchia` solves
    4p = L^2 + 27*M^2.  r1 = +-L is the sign with r1 = 1 (mod 3), and r2 = +-M
    the one sign meeting 9*r2 = (2*t + 1)*r1 (mod p).  Then
    J = (r1 + 3*r2)/2 + 3*r2*w.  No solution, no sign meeting the congruence,
    or a norm other than p raises IntegrityError.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p % 3 != 1:
        raise DomainError(f"no cubic character mod {p}: p = {p % 3} (mod 3)")
    if (t * t + t + 1) % p:
        raise DomainError(f"{t} is not a primitive cube root of unity mod {p}")

    root = 3 * (2 * t + 1) % p
    solution = _cornacchia(p, root if root % 2 else p - root)
    if solution is None:
        raise IntegrityError(f"Cornacchia finds no solution of 4*{p} = L^2 + 27*M^2")
    big_l, big_m = solution
    r1 = big_l if big_l % 3 == 1 else -big_l
    signs = [r2 for r2 in (big_m, -big_m) if (9 * r2 - (2 * t + 1) * r1) % p == 0]
    if len(signs) != 1:
        raise IntegrityError(
            f"the congruence 9*r2 = (2t + 1)*r1 (mod {p}) with r1 = {r1}, t = {t} "
            f"holds for r2 in {signs}, expected exactly one of +-{big_m}"
        )
    r2 = signs[0]
    j_sum = EisensteinInt((r1 + 3 * r2) // 2, 3 * r2)
    if j_sum.norm() != p:
        raise IntegrityError(f"Jacobi sum {j_sum} over F_{p} has norm {j_sum.norm()}, expected {p}")
    return j_sum


def r_pair(j_sum: EisensteinInt, p: int) -> tuple[int, int]:
    """Extract (r1, r2) from a cubic Jacobi sum via 2J = r1 + 3*sqrt(3)*r2*i.

    With J = a + b*w this reads r1 = 2a - b and r2 = b/3.  The preconditions
    (norm p, 3 | b) and the defining constraints of the pair are re-checked;
    any violation signals a Jacobi-sum bug and raises IntegrityError.
    """
    if j_sum.norm() != p:
        raise IntegrityError(f"norm {j_sum.norm()} != {p}: not a cubic Jacobi sum for this prime")
    if j_sum.b % 3 != 0:
        raise IntegrityError(f"w-coefficient {j_sum.b} not divisible by 3")
    r1 = j_sum.real_doubled()
    r2 = j_sum.b // 3
    if 4 * p != r1 * r1 + 27 * r2 * r2:
        raise IntegrityError(f"4*{p} != {r1}^2 + 27*{r2}^2")
    if r1 % 3 != 1:
        raise IntegrityError(f"r1 = {r1} is not 1 (mod 3)")
    if (r1 - r2) % 2 != 0:
        raise IntegrityError(f"r1 = {r1} and r2 = {r2} have opposite parity")
    return r1, r2
