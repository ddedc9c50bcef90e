"""Cross-validation suite: every closed form against its independent witness.

Groups of checks, mirroring how the library is meant to be trusted:

* worked example: the F_31 constants and both three-variable twisted counts,
  closed form and brute force;
* oracle equivalence: closed-form counts equal brute-force convolution counts
  on every supported field, exhaustively in the target for q <= 31;
* constants integrity: on every supported field the Diophantine search finds
  the (c, d), and for odd k the parity rule the theta, read off the exact
  Gauss cube; a scan of all primes p = 1 (mod 3) up to 10^4 requires the
  Cornacchia and direct Jacobi sums to be equal;
* numeric identities: the oracle's exact character sums in Z[w][zeta_p]
  satisfy the analytic identities as integer equalities;
* mod-4 sign rule: the classical criterion for 2 non-cubic agrees with the
  sign factor and with brute force for every applicable prime up to 200;
* even-degree adjudication: at q = 49 the oracle decides between the exact
  theta and the parity rule (the latter is impossible by integrality and is
  reported as a warning, not a failure);
* bijective-cube sanity: q != 1 (mod 3) fields, characteristic 3 among them,
  count q^(s-1) everywhere.

The witnesses that only these checks run live here, each next to its check,
so the modules a count loads hold one route per quantity:
:func:`twisted3_closed` (worked example, mod-4 rule), :func:`cd_search`,
:func:`theta_sign_rule` and :func:`jacobi_sum_direct` (constants integrity),
and :func:`signed_d_mod4`, the Chowla-Cowles-Cowles mod-4 rule.

`full_report` returns a JSON-serializable report; any check with status
"fail" marks the suite failed, "warn" entries are informational.  It runs the
groups in the calling process, one after another in the order above, so the
exception it raises is that of the first group to fail.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from . import counting, oracle
from .constants import CubicData, cubic_data, delta
from .eisenstein import EI_ONE, OMEGA, OMEGA2, EisensteinInt, jacobi_sum_cubic, r_pair
from .errors import DomainError, IntegrityError, ResourceError
from .fields import NONCUBIC_CLASSES, NONZERO_CLASSES, CubicClass, FieldDescriptor, make_field
from .ntheory import is_prime, prime_factors, primes_up_to

#: q -> (p, k) for every field the closed forms are validated on.
SUPPORTED_FIELDS = {
    4: (2, 2), 7: (7, 1), 13: (13, 1), 16: (2, 4), 19: (19, 1), 25: (5, 2),
    31: (31, 1), 37: (37, 1), 43: (43, 1), 49: (7, 2), 61: (61, 1), 64: (2, 6),
}

#: q != 1 (mod 3) fields for the bijective-cube regime: q = 2 (mod 3), and
#: characteristic 3, where cubing is the Frobenius automorphism.
TRIVIAL_FIELDS = {
    2: (2, 1), 5: (5, 1), 8: (2, 3), 11: (11, 1),
    3: (3, 1), 9: (3, 2), 27: (3, 3), 81: (3, 4),
}

JACOBI_SCAN_BOUND = 10_000
MOD4_PRIME_BOUND = 200

#: Frozen expectations for the worked example over F_31 with g = 3.
EXAMPLE_EXPECTED = {
    "c": 4, "d": 2, "r1": 4, "r2": 2,
    "delta_g": -1, "delta_g2": 1,
    "t3_g": 1171, "t3_g2": 631,
}


class Check(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "warn"
    observed: object
    expected: object
    detail: str = ""


def _check(name: str, ok: bool, observed, expected, detail="") -> Check:
    return Check(name, "pass" if ok else "fail", observed, expected, detail)


def _max_s(q: int) -> int:
    return 6 if q <= 16 else 4


@lru_cache(maxsize=64)
def _canonical_field(p: int, k: int = 1) -> FieldDescriptor:
    """make_field(p, k), built once and shared by every check that reads it."""
    return make_field(p, k)


def supported_field(q: int) -> FieldDescriptor:
    return _canonical_field(*SUPPORTED_FIELDS[q])


# ---------------------------------------------------------------------------
# worked example


def twisted3_closed(data: CubicData, y_cls: CubicClass) -> int:
    """T_3 in closed form: q^2 + (q-1) * (-c - 9 * delta_y * d) / 2, exact."""
    if y_cls not in NONCUBIC_CLASSES:
        raise DomainError(f"the scaled variable's coefficient must be non-cubic, got {y_cls}")
    numerator = (data.q - 1) * (-data.c - 9 * delta(data, y_cls) * data.d)
    if numerator % 2 != 0:
        raise IntegrityError(f"half-integer T_3 for q = {data.q}")
    return data.q * data.q + numerator // 2


def check_example_reproduction() -> list[Check]:
    """F_31 with g = 3: constants, sign factors, and both T_3 values, each
    matched exactly by the closed form and by brute force."""
    checks = []
    f31 = make_field(31, 1, generator=[3])
    data = cubic_data(f31)
    expected = EXAMPLE_EXPECTED
    for key in ("c", "d", "r1", "r2"):
        checks.append(_check(f"example/{key}", getattr(data, key) == expected[key], getattr(data, key), expected[key]))
    d_g = delta(data, CubicClass.C1)
    d_g2 = delta(data, CubicClass.C2)
    checks.append(_check("example/delta_g", d_g == expected["delta_g"], d_g, expected["delta_g"]))
    checks.append(_check("example/delta_g2", d_g2 == expected["delta_g2"], d_g2, expected["delta_g2"]))

    g = f31.g
    for key, y, cls in (("t3_g", g, CubicClass.C1), ("t3_g2", g * g, CubicClass.C2)):
        closed = twisted3_closed(data, cls)
        recursed = counting.count_twisted(data, 3, cls)
        brute = oracle.brute_twisted(f31, 3, y)
        ok = closed == recursed == brute == expected[key]
        checks.append(_check(
            f"example/{key}", ok,
            {"closed": closed, "recurrence": recursed, "brute": brute},
            expected[key],
        ))
    return checks


def reproduce_example() -> dict:
    checks = check_example_reproduction()
    status = "PASS" if all(c.status == "pass" for c in checks) else "FAIL"
    return {"status": status, "checks": [c._asdict() for c in checks]}


# ---------------------------------------------------------------------------
# oracle equivalence


def check_oracle_equivalence() -> list[Check]:
    """Closed forms equal brute force on every supported field: all targets
    exhaustively for q <= 31, zero plus one representative per class above."""
    checks = []
    for q in SUPPORTED_FIELDS:
        field = supported_field(q)
        data = cubic_data(field)
        mismatches = []
        compared = 0
        exhaustive = q <= 31
        # (target, its cubic class): each element is classified once per field
        if exhaustive:
            targets = [(z, CubicClass.ZERO if z.is_zero() else field.cube_class(z)) for z in field.elements()]
        else:
            targets = [(field.zero, CubicClass.ZERO)] + [(field.representative(cls), cls) for cls in NONZERO_CLASSES]
        for s in range(1, _max_s(q) + 1):
            vector = oracle.diagonal_count_vector(field, s)
            for z, cls in targets:
                compared += 1
                closed = counting.count_diagonal(data, s, cls)
                if closed != vector[int(z)]:
                    mismatches.append((s, str(z), closed, vector[int(z)]))
        ys = [(y, cls) for y, cls in targets if cls in NONCUBIC_CLASSES]
        for s in range(2, _max_s(q) + 1):
            for y, cls in ys:
                compared += 1
                closed = counting.count_twisted(data, s, cls)
                brute = oracle.brute_twisted(field, s, y)
                if closed != brute:
                    mismatches.append(("T", s, str(y), closed, brute))
        checks.append(_check(
            f"oracle-equivalence/q={q}", not mismatches,
            mismatches if mismatches else f"{compared} targets equal",
            "no mismatches",
            detail=f"s <= {_max_s(q)}, {'all' if exhaustive else 'representative'} targets",
        ))
        # the twisted series must equal N_{s-1}(0) + (q-1) N_{s-1}(y), its seeds' source
        stream_ok = all(
            counting.twisted_series(data, cls, 5) == tuple(
                counting.count_diagonal(data, s - 1, CubicClass.ZERO)
                + (q - 1) * counting.count_diagonal(data, s - 1, cls)
                for s in range(2, 7)
            )
            for cls in NONCUBIC_CLASSES
        )
        checks.append(_check(
            f"twisted-series-consistency/q={q}", stream_ok,
            "twisted series == N_{s-1}(0) + (q-1)*N_{s-1}(y)" if stream_ok else "divergence",
            "agreement for s <= 6",
        ))
    return checks


# ---------------------------------------------------------------------------
# constants integrity


#: Largest number of d values cd_search tries: q up to about 6.75 * 10^12.
_MAX_CD_SEARCH_LOOPS = 10**6


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


def theta_sign_rule(k: int, r1: int, r2: int) -> int:
    """The parity sign rule for theta: 0 for even k, else sgn(Im((r1 + 3*sqrt(3)*r2*i)^k)).

    Exact, as r1 + 3*sqrt(3)*r2*i = 2*((r1+3*r2)/2 + 3*r2*w) = 2J has integer
    Eisenstein coordinates (r1 and r2 share parity); for odd k it witnesses
    that ``cubic_data``'s theta, sgn Im J^k, is the published rule.
    """
    if k % 2 == 0:
        return 0
    if (r1 - r2) % 2 != 0:
        raise IntegrityError(f"r1 = {r1}, r2 = {r2} have opposite parity")
    return (EisensteinInt((r1 + 3 * r2) // 2, 3 * r2) ** k).imag_sign()


#: Largest p for the direct Jacobi sum, whose table of cubes has p entries.
_MAX_JACOBI_P = 10**7


def _verify_generator_mod_p(gen: int, p: int) -> None:
    if gen % p == 0:
        raise DomainError(f"{gen} is not a unit mod {p}")
    for ell in prime_factors(p - 1):
        if pow(gen, (p - 1) // ell, p) == 1:
            raise DomainError(f"{gen} does not generate the units mod {p}")


def jacobi_sum_direct(p: int, gen: int) -> EisensteinInt:
    """Cubic Jacobi sum over F_p by direct O(p) summation, with chi(gen) = w:
    the witness for :func:`jacobi_sum_cubic`, used by ``verify`` and the tests.

    As -1 is a cube, J sums chi(x) * chi(x - 1) over x = 2 .. p - 1, and
    x -> p + 1 - x keeps the classes of the pair, so ind mod 3 on [1, h],
    h = (p - 1)/2, suffices: x = 2 .. h count twice, x = h + 1 = -h once.  The
    one Python loop marks half the cubes, (p - 1)/6 products; x <= h is a cube
    iff x or p - x is marked.  The class of the least non-cube k is k times the
    cubes, about k strided slices.  With a class's x at bit 8x of an int, the
    cyclotomic numbers #{x : ind(x) = a, ind(x - 1) = b} are popcounts of
    class_a & class_b << 8.  The result must have norm p and w-coefficient
    divisible by 3; p above ``_MAX_JACOBI_P`` is refused before any work.
    """
    if p > _MAX_JACOBI_P:
        raise ResourceError(
            f"the direct cubic Jacobi sum over F_{p} needs a table of {p} entries, "
            f"above the cap of p <= {_MAX_JACOBI_P}"
        )
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p % 3 != 1:
        raise DomainError(f"no cubic character mod {p}: p = {p % 3} (mod 3)")
    _verify_generator_mod_p(gen, p)
    return _jacobi_sum_direct(p, gen)


def _jacobi_sum_direct(p: int, gen: int) -> EisensteinInt:
    """:func:`jacobi_sum_direct` with p and gen already proved, as the scan has them."""
    # cube[x] = 1 on gen^(3j), j < n/2, and the other cubes are their negatives:
    # c0, the cubes x <= h at bit 8x, ORs in cube[p - 1 .. h + 1] read big-endian
    n, h = (p - 1) // 3, (p - 1) // 2
    cube = bytearray(p)
    gen3 = pow(gen, 3, p)
    x = 1
    for _ in range(n // 2):
        cube[x] = 1
        x = x * gen3 % p
    view = memoryview(cube)
    c0 = int.from_bytes(view[:h + 1], "little") | int.from_bytes(view[h + 1:], "big") << 8
    del view, cube  # at p near the cap the table is about 10 MB
    half = c0.to_bytes(h + 1, "little")

    # moved marks class e = k * cubes on [1, h]: y = k*x - j*p rises by k for x
    # in [lo, mid), then -y = (j + 1)*p - k*x falls by k for x in [mid, hi)
    k = half.index(0, 1)
    e = 1 if pow(k, n, p) == pow(gen, n, p) else 2
    moved = bytearray(h + 1)
    for j in range((k + 1) // 2):
        lo, mid, hi = -(-j * p // k), min((j * p + h) // k + 1, h + 1), min(-(-(j + 1) * p // k), h + 1)
        a, b = k * lo - j * p, (j + 1) * p - k * (hi - 1)
        moved[a:a + k * (mid - lo):k] = half[lo:mid]
        moved[b:b + k * (hi - mid):k] = half[hi - 1:mid - 1:-1]
    bits = [c0, 0, 0]  # bits[i] holds the x in [1, h] with ind(x) = i (mod 3) at bit 8x
    bits[e] = int.from_bytes(moved, "little")
    bits[3 - e] = int.from_bytes(b"\1" * h, "little") << 8 ^ c0 ^ bits[e]
    ind_h = 0 if half[h] else e if moved[h] else 3 - e
    del half, moved

    # n_t sums the cyclotomic numbers with a + b = t (mod 3), as one OR since x
    # lies in one class; each x <= h counts twice, x = h + 1 once
    prev = [c << 8 for c in bits]
    n1, n2 = (2 * (bits[0] & prev[t] | bits[1] & prev[t - 1] | bits[2] & prev[t - 2]).bit_count()
              + (2 * ind_h % 3 == t) for t in (1, 2))
    n0 = (p - 2) - n1 - n2
    # n0 + n1*w + n2*w^2 with w^2 = -1 - w
    j_sum = EisensteinInt(n0 - n2, n1 - n2)

    if j_sum.norm() != p:
        raise IntegrityError(f"Jacobi sum over F_{p} has norm {j_sum.norm()}, expected {p}")
    if j_sum.b % 3 != 0:
        raise IntegrityError(f"Jacobi sum over F_{p} has w-coefficient {j_sum.b} not divisible by 3")
    return j_sum


def _least_primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors):
            return g
    raise AssertionError(f"no primitive root mod {p}")


def check_constants_integrity(jacobi_bound: int = JACOBI_SCAN_BOUND) -> list[Check]:
    """Per-field constants invariants, plus the prime scan: for every prime
    p = 1 (mod 3) up to the bound, the Cornacchia route equals the direct
    sum, which has norm p, w-coefficient divisible by 3, and (r1, r2)
    satisfying the defining congruence with the r2 sign uniquely selected
    by it."""
    if jacobi_bound > _MAX_JACOBI_P:
        raise ResourceError(f"a Jacobi scan to {jacobi_bound} needs direct sums above the cap of p <= {_MAX_JACOBI_P}")
    checks = []
    for q, (p, k) in SUPPORTED_FIELDS.items():
        field = supported_field(q)
        data = cubic_data(field)  # construction re-asserts every invariant
        ok = (
            (data.c, data.d) == cd_search(q, p)  # the Diophantine witness
            and 4 * q == data.c ** 2 + 27 * data.d ** 2
            and data.c % 3 == 1
            and data.d >= 0
            and (data.c - data.d) % 2 == 0
            and data.gauss_cubed_over_q.norm() == q
            and ((data.r1 is not None) == (p % 3 == 1))
        )
        if p % 3 == 1:
            ok = ok and 4 * p == data.r1 ** 2 + 27 * data.r2 ** 2 and data.r1 % 3 == 1
        if p % 3 == 1 and k % 2 == 1:
            ok = ok and data.theta == theta_sign_rule(k, data.r1, data.r2)
        checks.append(_check(f"constants/q={q}", ok, "all invariants hold" if ok else "violation", "invariants"))

    scanned = 0
    failures = []
    for p in primes_up_to(jacobi_bound):
        if p % 3 != 1:
            continue
        gen = _least_primitive_root(p)
        t = pow(gen, (p - 1) // 3, p)
        j_sum = _jacobi_sum_direct(p, gen)  # p is sieved, gen proved; asserts norm and divisibility
        j_fast = jacobi_sum_cubic(p, t)
        if j_fast != j_sum:
            failures.append((p, f"Cornacchia route gives {j_fast}, direct sum gives {j_sum}"))
        r1, r2 = r_pair(j_sum, p)
        if (9 * r2 - (2 * t + 1) * r1) % p != 0:
            failures.append((p, "congruence"))
        # the congruence must reject the flipped sign whenever r2 != 0
        if r2 != 0 and (9 * (-r2) - (2 * t + 1) * r1) % p == 0:
            failures.append((p, "sign not unique"))
        scanned += 1
    checks.append(_check(
        "jacobi-scan", not failures,
        failures if failures else f"{scanned} primes verified",
        "route agreement, norm, divisibility, congruence, sign uniqueness",
        detail=f"all primes p = 1 (mod 3), p <= {jacobi_bound}",
    ))
    return checks


# ---------------------------------------------------------------------------
# numeric identities


def check_numeric_identities() -> list[Check]:
    """The character-sum identities as exact equalities in Z[w][zeta_p], all
    fields, each stated as its check's expected value: G = G(chi, psi),
    G-bar = G(conj(chi), psi), M = G^3/q from cubic_data, J by Cornacchia."""
    checks = []
    for q, (p, k) in SUPPORTED_FIELDS.items():
        field = supported_field(q)
        data = cubic_data(field)
        g_sum = oracle.gauss_sum(field)
        g_conj = oracle.gauss_sum(field, 2)
        g_squared = g_sum * g_sum
        g_cubed = g_squared * g_sum
        g = field.g
        s_values = [oracle.cubic_exp_sum(field, g ** i) for i in (1, 2, 3)]
        # the right side of the decomposition, once per value of chi
        decomposed = [g_sum * chi.conjugate() + g_conj * chi for chi in (EI_ONE, OMEGA, OMEGA2)]
        log = oracle._tables(field).log  # chi(h) = w^(log h), as chi(g) = w
        cubic = all(s * s * s == 3 * q * s + q * data.c for s in s_values)
        decomposition = all(oracle.cubic_exp_sum(field, h) == decomposed[log[int(h)] % 3]
                            for h in field.nonzero_elements())
        orthogonality = all(oracle.orthogonality_sum(field, x) == (q if x.is_zero() else 0) for x in field.elements())
        identities = {  # name -> (the identity, whether it holds)
            "gauss-modulus": ("G * conj(G) = q", g_sum * g_sum.conjugate() == q),
            "gauss-product": ("G * G-bar = q", g_sum * g_conj == q),
            "gauss-cubed-sum": ("G^3 + G-bar^3 = c*q", g_cubed + g_conj * g_conj * g_conj == data.c * q),
            "gauss-cubed-exact": ("G^3 = q*M", g_cubed == data.gauss_cubed_over_q * q),
            "power-sum-cubic": ("S^3 = 3q*S + q*c for S = S_g, S_g2, S_g3", cubic),
            "power-sum-total": ("S_g + S_g2 + S_g3 = 0", s_values[0] + s_values[1] + s_values[2] == 0),
            "power-sum-period": ("S_g4 = S_g", oracle.cubic_exp_sum(field, g ** 4) == s_values[0]),
            "power-sum-decomposition": ("S_h = conj(chi(h))*G + chi(h)*G-bar for every nonzero h", decomposition),
            "orthogonality": ("sum over a of psi(a*x) = q*[x = 0] for every x", orthogonality),
        }
        if k == 1:
            j_sum = jacobi_sum_cubic(p, field._cube_roots[1])
            identities["jacobi-numeric"] = ("G^2 = J * G-bar", g_squared == g_conj * j_sum)
        for name, (identity, ok) in identities.items():
            checks.append(_check(f"numeric/{name}/q={q}", ok, "holds" if ok else "fails", identity))
    return checks


# ---------------------------------------------------------------------------
# mod-4 sign rule


def signed_d_mod4(field: FieldDescriptor, y_cls: CubicClass) -> int:
    """Signed d for the three-variable twisted count over a prime field where
    2 is non-cubic, selected by the mod-4 rule:

        d~ = c (mod 4)   if y and 2 share a cubic class,
        d~ != c (mod 4)  if y and 4 share a cubic class,

    so that T_3(y) = p^2 + (p-1) * (-c + 9 * d~) / 2.  Here c and d are both
    odd, hence exactly one of +d, -d satisfies each branch.  (c, d) is read
    from :func:`cubic_data`, which over F_p is (r1, |r2|) of the Jacobi sum.
    """
    if field.k != 1:
        raise DomainError("the mod-4 rule is stated over prime fields")
    p = field.p
    if p % 3 != 1:
        raise DomainError(f"p = {p} = {p % 3} (mod 3): no non-cubic elements")
    if y_cls not in NONCUBIC_CLASSES:
        raise DomainError(f"y must be non-cubic, got {y_cls}")
    two = field.element([2])
    cls_two = field.cube_class(two)
    if cls_two is CubicClass.C0:
        raise DomainError(f"2 is cubic over F_{p}: the mod-4 rule does not apply")
    cls_four = field.cube_class(two * two)
    data = cubic_data(field)
    c, d = data.c, data.d
    if d % 2 == 0:
        raise IntegrityError(
            f"cubic_data gives even d = {d} over F_{p}, but cube_class puts 2 in {cls_two}, "
            f"not c0: d is even exactly when 2 is a cube"
        )
    if y_cls is cls_two:
        wanted = c % 4
    elif y_cls is cls_four:
        wanted = (c + 2) % 4
    else:
        raise IntegrityError("non-cubic classes must be exactly those of 2 and 4")
    if d % 4 == wanted:
        return d
    if (-d) % 4 == wanted:
        return -d
    raise IntegrityError(f"neither {d} nor {-d} is {wanted} (mod 4)")


#: Largest prime bound of the mod-4 check, whose brute-force T_3 grows about as p^2.5.
_MAX_MOD4_PRIME_BOUND = 2000


def check_mod4_sign_rule(prime_bound: int = MOD4_PRIME_BOUND) -> list[Check]:
    """For every prime p = 1 (mod 3), p <= bound, with 2 non-cubic: the mod-4
    signed d equals -delta_y * d for both non-cubic classes, and T_3 computed
    through it agrees with the closed form and with brute force.  A bound
    above ``_MAX_MOD4_PRIME_BOUND`` is refused before any work."""
    if prime_bound > _MAX_MOD4_PRIME_BOUND:
        raise ResourceError(
            f"a mod-4 sign-rule check to {prime_bound} needs brute-force counts "
            f"above the cap of p <= {_MAX_MOD4_PRIME_BOUND}"
        )
    checks = []
    applicable = []
    failures = []
    for p in primes_up_to(prime_bound):
        if p % 3 != 1:
            continue
        field = _canonical_field(p)
        if field.cube_class(field.element([2])) is CubicClass.C0:
            continue  # the rule is stated only for 2 non-cubic
        applicable.append(p)
        data = cubic_data(field)
        for cls in NONCUBIC_CLASSES:
            signed = signed_d_mod4(field, cls)
            if signed != -delta(data, cls) * data.d:
                failures.append((p, str(cls), "sign", signed, -delta(data, cls) * data.d))
            t3_mod4 = p * p + (p - 1) * (-data.c + 9 * signed) // 2
            t3_closed = twisted3_closed(data, cls)
            t3_brute = oracle.brute_twisted(field, 3, field.representative(cls), max_q=prime_bound + 1)
            if not (t3_mod4 == t3_closed == t3_brute):
                failures.append((p, str(cls), "t3", t3_mod4, t3_closed, t3_brute))
    checks.append(_check(
        "mod4-sign-rule", not failures,
        failures if failures else f"primes {applicable} verified",
        "signed d and T_3 agree on both classes",
        detail=f"p <= {prime_bound}, p = 1 (mod 3), 2 non-cubic",
    ))
    return checks


# ---------------------------------------------------------------------------
# even-degree adjudication and bijective sanity


def check_even_degree_adjudication() -> list[Check]:
    """q = 49: the brute-force pair counts decide theta.  The exact path must
    match the oracle on both non-cubic classes; the parity rule's value 0
    would force a half-integer count and is reported as a warning."""
    checks = []
    field = supported_field(49)
    data = cubic_data(field)
    checks.append(_check("even-degree/theta-nonzero", data.theta != 0, data.theta, "nonzero"))
    vector = oracle.diagonal_count_vector(field, 2)
    for cls in NONCUBIC_CLASSES:
        rep = field.representative(cls)
        brute = vector[int(rep)]
        closed = counting.count_diagonal(data, 2, cls)
        checks.append(_check(
            f"even-degree/oracle-match/{cls}", closed == brute, closed, brute,
            detail=f"pair counts for target {rep} over F_49",
        ))
    parity_numerator = -4 - data.c  # the parity rule sets the sign term to 0
    checks.append(Check(
        "even-degree/parity-rule-deviation",
        "warn",
        f"theta={data.theta}, parity rule predicts 0 and a second seed {parity_numerator}/2",
        "documented finding: the parity-rule value is impossible by integrality",
        detail="counts use the exact theta; --theta-source paper refuses non-cubic classes here",
    ))
    return checks


def check_bijective_fields() -> list[Check]:
    """q != 1 (mod 3): every count is q^(s-1), closed form and brute force."""
    checks = []
    for q, (p, k) in TRIVIAL_FIELDS.items():
        field = _canonical_field(p, k)
        mismatches = []
        for s in range(1, 5):
            vector = oracle.diagonal_count_vector(field, s)
            for z in field.elements():
                closed = counting.bijective_count(q, s, z.is_zero())
                if closed != q ** (s - 1) or closed != vector[int(z)]:
                    mismatches.append((s, str(z), closed, vector[int(z)]))
        checks.append(_check(
            f"bijective/q={q}", not mismatches,
            mismatches if mismatches else "all counts q^(s-1)", "q^(s-1) everywhere",
            detail="s <= 4, every target",
        ))
    return checks


# ---------------------------------------------------------------------------
# the full suite


def full_report(jacobi_bound: int | None = None, mod4_prime_bound: int | None = None) -> dict:
    """The seven groups' checks, in the order above; the first group to raise propagates its exception."""
    checks = [
        *check_example_reproduction(),
        *check_oracle_equivalence(),
        *check_constants_integrity(jacobi_bound if jacobi_bound is not None else JACOBI_SCAN_BOUND),
        *check_numeric_identities(),
        *check_mod4_sign_rule(mod4_prime_bound if mod4_prime_bound is not None else MOD4_PRIME_BOUND),
        *check_even_degree_adjudication(),
        *check_bijective_fields(),
    ]
    passed = sum(1 for c in checks if c.status == "pass")
    failed = sum(1 for c in checks if c.status == "fail")
    warned = sum(1 for c in checks if c.status == "warn")
    return {
        "checks": [c._asdict() for c in checks],
        "passed": passed,
        "failed": failed,
        "warnings": warned,
        "ok": failed == 0,
    }
