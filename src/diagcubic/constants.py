"""Field constants feeding the closed-form counts: (c, d), (r1, r2), theta.

For q = p^k = 1 (mod 3) the counting formulas are driven by the unique pair
(c, d) with

    4q = c^2 + 27 d^2,   c = 1 (mod 3),   d >= 0,
    and gcd(c, p) = 1 whenever p = 1 (mod 3),

together with a sign theta in {-1, 0, +1} that selects which square root of
27 d^2 enters the non-cubic counts.  The exact carrier of theta is the cubed
Gauss sum divided by q, which lives in Z[w]:

    M = G^3 / q = (-1)^(k-1) * J^k          (p = 1 mod 3, J the cubic Jacobi
                                             sum over F_p with chi'(norm(g)) = w)

and, writing M = A + B*w: c = 2A - B, d = |B| / 3, theta = sgn(B).

Every constant is computed once per field, in :func:`cubic_data`.  The
production route is the one Jacobi sum J, found in O(log p) by the modified
Cornacchia algorithm with the r2 sign fixed by the congruence of Gauss's
cubic theorem (:func:`~diagcubic.eisenstein.jacobi_sum_cubic`): J gives M,
M gives (c, d) and theta, and J gives the r-pair.  The Diophantine search
:func:`cd_search` is the independent witness for (c, d); the two routes must
agree exactly.  The direct O(p) Jacobi sum is a second witness, used only
by ``verify`` and the tests.

A second prediction of theta ("theta_paper", the published parity rule) is
computed independently: 0 for even k, and the sign of Im((r1+3*sqrt(3)*r2*i)^k)
for odd k.  The two rules agree for odd k but disagree when p = 1 (mod 3) and
k is even (e.g. q = 49), where the exact path gives a nonzero theta and the
brute-force oracle confirms it.  Both values are retained; the exact one is
the default everywhere.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .eisenstein import EisensteinInt, jacobi_sum_cubic, r_pair
from .errors import DomainError, IntegrityError, ResourceError
from .fields import CubicClass, FieldDescriptor

THETA_SOURCES = ("exact", "paper")

#: Largest number of d values cd_search tries: q up to about 6.75 * 10^12.
_MAX_CD_SEARCH_LOOPS = 10**6


class CubicData(NamedTuple):
    """All constants of one field consumed by the counting formulas."""

    q: int
    p: int
    k: int
    c: int
    d: int
    r1: int | None  # present iff p = 1 (mod 3)
    r2: int | None
    theta: int  # from the exact Eisenstein path; source of truth
    theta_paper: int  # from the parity sign rule; retained for comparison
    gauss_cubed_over_q: EisensteinInt

    def theta_from(self, source: str) -> int:
        if source not in THETA_SOURCES:
            raise DomainError(f"unknown theta source {source!r}, expected one of {THETA_SOURCES}")
        return self.theta if source == "exact" else self.theta_paper


def cd_search(q: int, p: int) -> tuple[int, int]:
    """The unique (c, d) with 4q = c^2 + 27 d^2, c = 1 (mod 3), d >= 0,
    and gcd(c, p) = 1 when p = 1 (mod 3).

    Enumerates d and tests 4q - 27 d^2 for squareness with exact integer
    square roots; zero or multiple survivors contradict the uniqueness the
    closed forms rely on and abort loudly.  A q needing more than
    ``_MAX_CD_SEARCH_LOOPS`` values of d is refused with a ResourceError
    before the loop.
    """
    if q % 3 != 1:
        raise DomainError(f"q = {q} = {q % 3} (mod 3) has no (c, d) representation")
    loops = isqrt(4 * q // 27) + 1
    if loops > _MAX_CD_SEARCH_LOOPS:
        raise ResourceError(
            f"the (c, d) search for q = {q} needs {loops} steps, above the cap of {_MAX_CD_SEARCH_LOOPS}"
        )
    survivors = []
    d = 0
    while 27 * d * d <= 4 * q:
        rem = 4 * q - 27 * d * d
        s = isqrt(rem)
        if s * s == rem:
            for c in (s, -s) if s else (0,):
                if c % 3 == 1 and (p % 3 != 1 or gcd(c, p) == 1):
                    survivors.append((c, d))
        d += 1
    if len(survivors) != 1:
        raise IntegrityError(f"(c, d) for q = {q} not unique: {sorted(survivors)}")
    return survivors[0]


def theta_exact(field: FieldDescriptor) -> tuple[int, EisensteinInt]:
    """theta and M = G^3/q from exact Eisenstein arithmetic: a view of
    :func:`cubic_data`, which computes both once and checks them against the
    Diophantine witness."""
    data = cubic_data(field)
    return data.theta, data.gauss_cubed_over_q


def theta_sign_rule(k: int, r1: int, r2: int) -> int:
    """The parity sign rule for theta: 0 for even k, else sgn(Im((r1 + 3*sqrt(3)*r2*i)^k)).

    The odd-k sign is computed exactly: r1 + 3*sqrt(3)*r2*i = 2*((r1+3*r2)/2 + 3*r2*w)
    has integer Eisenstein coordinates because r1 and r2 share parity.
    """
    if k % 2 == 0:
        return 0
    if (r1 - r2) % 2 != 0:
        raise IntegrityError(f"r1 = {r1}, r2 = {r2} have opposite parity")
    return (EisensteinInt((r1 + 3 * r2) // 2, 3 * r2) ** k).imag_sign()


def delta(data: CubicData, cls: CubicClass, theta_source: str = "exact") -> int:
    """Sign factor for a non-cubic target class: -theta for C1, +theta for C2.

    Undefined for cubes and zero; those targets never consult it.
    """
    theta = data.theta_from(theta_source)
    if cls is CubicClass.C1:
        return -theta
    if cls is CubicClass.C2:
        return theta
    raise DomainError(f"the sign factor is defined only for non-cubic classes, not {cls}")


def cubic_data(field: FieldDescriptor) -> CubicData:
    """Assemble every constant for one field, cross-checking all invariants.

    Production route: for p = 1 (mod 3) one Jacobi sum J over F_p, taken with
    the prime-field generator norm(g) so that class labels, theta and the r2
    sign agree, gives M = (-1)^(k-1) * J^k and the r-pair; M gives c, d and
    theta.  J comes from the modified Cornacchia algorithm and the r2
    congruence in O(log p).  For p = 2 (mod 3) there is no cubic character of
    F_p: d = 0, theta = 0 and M = c/2.  Witness: cd_search, whose (c, d) must
    equal the pair read off M; it takes O(sqrt q) steps and refuses q above
    about 6.75 * 10^12 with a ResourceError.
    """
    q, p, k = field.q, field.p, field.k
    if q % 3 != 1:
        raise DomainError(f"q = {q} = {q % 3} (mod 3): the counting constants are not defined")
    if p % 3 == 1:
        j_sum = jacobi_sum_cubic(p, field.g.norm())
        c, d = cd_search(q, p)
        m = j_sum ** k
        if k % 2 == 0:
            m = -m
        if m.real_doubled() != c or abs(m.b) != 3 * d:
            raise IntegrityError(
                f"exact Gauss-cube path gives (c, d) = ({m.real_doubled()}, {abs(m.b) // 3}) "
                f"but the Diophantine search gives ({c}, {d}) for q = {q}"
            )
        r1, r2 = r_pair(j_sum, p)
        theta = m.imag_sign()
        theta_paper = theta_sign_rule(k, r1, r2)
    else:
        c, d = cd_search(q, p)
        if c % 2 != 0:
            raise IntegrityError(f"c = {c} odd with d = {d} for square q = {q}")
        m = EisensteinInt(c // 2, 0)
        r1 = r2 = None
        theta = theta_paper = 0  # k is even here, since q = 1 (mod 3) with p = 2 (mod 3)

    data = CubicData(
        q=q, p=p, k=k, c=c, d=d, r1=r1, r2=r2,
        theta=theta, theta_paper=theta_paper, gauss_cubed_over_q=m,
    )
    _check_invariants(data)
    return data


def _check_invariants(data: CubicData) -> None:
    c, d, m, q = data.c, data.d, data.gauss_cubed_over_q, data.q
    # (c, d) comes from cd_search; M from the Jacobi sum, or from c when p = 2 (mod 3)
    m_route = "the Jacobi sum" if data.r1 is not None else "c/2 (p = 2 mod 3)"
    if (c - d) % 2 != 0:
        raise IntegrityError(f"cd_search gives c = {c} and d = {d} of opposite parity for q = {q}")
    if (d == 0) != (data.theta == 0):
        raise IntegrityError(
            f"cd_search gives d = {d} but M = {m} from {m_route} gives theta = {data.theta} for q = {q}"
        )
    # M + conj(M) = c and |M|^2 = q, the exact restatements of the
    # Gauss-cube identities that the counting seeds depend on.
    total = m + m.conjugate()
    if total.b != 0 or total.a != c:
        raise IntegrityError(
            f"M + conj(M) = {total} for M = {m} from {m_route}, but cd_search gives c = {c} for q = {q}"
        )
    if m.norm() != q:
        raise IntegrityError(f"|M|^2 = {m.norm()} for M = {m} from {m_route}, but q = {q}")
