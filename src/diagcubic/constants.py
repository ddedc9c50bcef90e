"""Field constants feeding the closed-form counts: (c, d), (r1, r2), theta.

For q = p^k = 1 (mod 3) the counting formulas are driven by the unique pair
(c, d) with

    4q = c^2 + 27 d^2,   c = 1 (mod 3),   d >= 0,
    and gcd(c, p) = 1 whenever p = 1 (mod 3),

together with a sign theta in {-1, 0, +1} that selects which square root of
27 d^2 enters the non-cubic counts.  The exact carrier of theta is the cubed
Gauss sum divided by q, which lives in Z[w]:

    M = G^3 / q = (-1)^(k-1) * J^k          (p = 1 mod 3, J the cubic Jacobi
                                             sum over F_p for the field's t)

and, writing M = A + B*w: c = 2A - B, d = |B| / 3, theta = sgn(B).  For
p = 2 (mod 3), q = 1 (mod 3) forces k = 2m, and Stickelberger's theorem on
pure Gauss sums gives

    M = (-1)^(m-1) * p^m,                   so c = 2M, d = 0, theta = 0.

Every constant is computed once per field, in :func:`cubic_data`, by one
closed-form route per case.  For p = 1 (mod 3) that is the one Jacobi sum J,
found in O(log p) by the modified Cornacchia algorithm from the square root
3*(2t + 1) of -27 mod p and the r2 sign fixed by Gauss's cubic congruence,
both on the field's cube root of unity t
(:func:`~diagcubic.eisenstein.jacobi_sum_cubic`): J gives M, M gives (c, d)
and theta, and J gives the r-pair.  For p = 2 (mod 3) it is Stickelberger's
M.  ``cubic_data`` checks on every call that (c, d) meets the conditions above
and is tied to M.  The witnesses live in :mod:`diagcubic.verify`, next to the
checks that run them: the Diophantine search
:func:`~diagcubic.verify.cd_search` (O(sqrt q) steps, refused above q of about
6.75 * 10^12), whose (c, d) must equal the pair read off M, and the direct
O(p) Jacobi sum.

"theta_paper" reports the published parity rule: 0 for even k, and for odd k
the sign of Im((r1+3*sqrt(3)*r2*i)^k) = Im((2J)^k), which is theta as M = J^k
(witness: :func:`~diagcubic.verify.theta_sign_rule`).  The rules disagree when
p = 1 (mod 3) and k is even (e.g. q = 49), where the exact path gives a
nonzero theta and the brute-force oracle confirms it.  Both values are
reported; the counts read only the exact one.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .eisenstein import EisensteinInt, jacobi_sum_cubic, r_pair
from .errors import DomainError, IntegrityError
from .fields import CubicClass, FieldDescriptor


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
    theta_paper: int  # from the parity sign rule; reported, never counted with
    gauss_cubed_over_q: EisensteinInt


def delta(data: CubicData, cls: CubicClass) -> int:
    """Sign factor for a non-cubic target class: -theta for C1, +theta for C2.

    Undefined for cubes and zero; those targets never consult it.
    """
    if cls is CubicClass.C1:
        return -data.theta
    if cls is CubicClass.C2:
        return data.theta
    raise DomainError(f"the sign factor is defined only for non-cubic classes, not {cls}")


def _refuse_undefined(q: int) -> None:
    if q % 3 != 1:
        raise DomainError(f"q = {q} = {q % 3} (mod 3): the counting constants are not defined")


def cubic_data(field: FieldDescriptor) -> CubicData:
    """Assemble every constant for one field, cross-checking all invariants.

    One closed-form route per case gives M = G^3/q, and (c, d) and theta
    are read off M = A + B*w as c = 2A - B, d = |B|/3, theta = sgn(B):

    * p = 1 (mod 3): one Jacobi sum J over F_p, taken with the cube root of
      unity t = norm(g)^((p-1)/3) that cube_class reads, so that class labels,
      theta and the r2 sign agree, gives M = (-1)^(k-1) * J^k and the r-pair,
      by the modified Cornacchia algorithm and the r2 congruence on t.
    * p = 2 (mod 3): q = 1 (mod 3) forces k = 2m, and Stickelberger's pure
      Gauss sum gives M = (-1)^(m-1) * p^m, so c = 2M, d = 0 and theta = 0;
      F_p has no cubic character, hence no r-pair.

    The Diophantine search :func:`~diagcubic.verify.cd_search` is not run
    here: it is the witness for (c, d) in ``verify`` and the tests.
    """
    q, p, k = field.q, field.p, field.k
    _refuse_undefined(q)
    if p % 3 == 1:
        j_sum = jacobi_sum_cubic(p, field._cube_roots[1])
        m = j_sum ** k
        if k % 2 == 0:
            m = -m
        r1, r2 = r_pair(j_sum, p)
        theta = m.imag_sign()
        theta_paper = 0 if k % 2 == 0 else theta  # the parity rule's sgn Im J^k is sgn Im M
    else:
        half = k // 2
        m = EisensteinInt((-1) ** (half - 1) * p ** half, 0)
        r1 = r2 = None
        theta = theta_paper = 0

    data = CubicData(
        q=q, p=p, k=k, c=m.real_doubled(), d=abs(m.b) // 3, r1=r1, r2=r2,
        theta=theta, theta_paper=theta_paper, gauss_cubed_over_q=m,
    )
    _check_invariants(data)
    return data


def _check_invariants(data: CubicData) -> None:
    """The conditions that pin (c, d) and tie it to M, checked on every call.

    4q = c^2 + 27 d^2, c = 1 (mod 3), d >= 0 and, for p = 1 (mod 3),
    gcd(c, p) = 1 single out the pair (the contract of the witness
    :func:`~diagcubic.verify.cd_search`); M + conj(M) = c, |B| = 3d,
    sgn(B) = theta and |M|^2 = q tie it to M.
    Given c = 2A - B and |B| = 3d, |M|^2 = q is exactly 4q = c^2 + 27 d^2.
    """
    c, d, m, p, q = data.c, data.d, data.gauss_cubed_over_q, data.p, data.q
    route = "the Jacobi sum" if data.r1 is not None else "Stickelberger"
    if m.norm() != q:
        raise IntegrityError(f"{route} gives M = {m} with |M|^2 = {m.norm()}, but q = {q}")
    total = m + m.conjugate()
    if total.b != 0 or total.a != c:
        raise IntegrityError(f"{route} gives M = {m} with M + conj(M) = {total}, but c = {c} for q = {q}")
    if d < 0 or abs(m.b) != 3 * d or m.imag_sign() != data.theta:
        raise IntegrityError(
            f"{route} gives M = {m}, but d = {d} and theta = {data.theta} need B = theta * 3d for q = {q}"
        )
    if c % 3 != 1:
        raise IntegrityError(f"{route} gives M = {m} and c = {c} = {c % 3} (mod 3), not 1, for q = {q}")
    if p % 3 == 1 and gcd(c, p) != 1:
        raise IntegrityError(f"{route} gives M = {m} and c = {c}, which p = {p} divides, for q = {q}")
