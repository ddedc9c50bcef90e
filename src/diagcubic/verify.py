"""Cross-validation suite: every closed form against its independent witness.

Groups of checks, mirroring how the library is meant to be trusted:

* worked example: the F_31 constants and both three-variable twisted counts,
  closed form and brute force;
* oracle equivalence: closed-form counts equal brute-force convolution counts
  on every supported field, exhaustively in the target for q <= 31;
* constants integrity: the Diophantine search for (c, d) finds the pair
  read off the exact Gauss cube on every supported field, and a scan of all
  primes p = 1 (mod 3) up to 10^4 requires the Cornacchia and direct Jacobi
  sums to be equal;
* numeric identities: double-precision character sums confirm the analytic
  identities at stated tolerances;
* mod-4 sign rule: the classical criterion for 2 non-cubic agrees with the
  sign factor and with brute force for every applicable prime up to 200;
* even-degree adjudication: at q = 49 the oracle decides between the exact
  theta and the parity rule (the latter is impossible by integrality and is
  reported as a warning, not a failure);
* bijective-cube sanity: q != 1 (mod 3) fields, characteristic 3 among them,
  count q^(s-1) everywhere.

`full_report` returns a JSON-serializable report; any check with status
"fail" marks the suite failed, "warn" entries are informational.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import counting, oracle
from .constants import cd_search, cubic_data, delta
from .eisenstein import jacobi_sum_cubic, jacobi_sum_direct, r_pair
from .fields import NONCUBIC_CLASSES, NONZERO_CLASSES, CubicClass, FieldDescriptor, make_field
from .ntheory import prime_factors, primes_up_to

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
    tolerance: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return self._asdict()


def _check(name: str, ok: bool, observed, expected, tolerance=None, detail="") -> Check:
    return Check(name, "pass" if ok else "fail", observed, expected, tolerance, detail)


def _max_s(q: int) -> int:
    return 6 if q <= 16 else 4


def supported_field(q: int) -> FieldDescriptor:
    p, k = SUPPORTED_FIELDS[q]
    return make_field(p, k)


# ---------------------------------------------------------------------------
# worked example


def check_example_reproduction(theta_source: str = "exact") -> list[Check]:
    """F_31 with g = 3: constants, sign factors, and both T_3 values, each
    matched exactly by the closed form and by brute force.  The theta source
    is switchable; both agree here since the extension degree is odd."""
    checks = []
    f31 = make_field(31, 1, generator=[3])
    data = cubic_data(f31)
    expected = EXAMPLE_EXPECTED
    for key in ("c", "d", "r1", "r2"):
        checks.append(_check(f"example/{key}", getattr(data, key) == expected[key], getattr(data, key), expected[key]))
    d_g = delta(data, CubicClass.C1, theta_source)
    d_g2 = delta(data, CubicClass.C2, theta_source)
    checks.append(_check("example/delta_g", d_g == expected["delta_g"], d_g, expected["delta_g"]))
    checks.append(_check("example/delta_g2", d_g2 == expected["delta_g2"], d_g2, expected["delta_g2"]))

    g = f31.g
    for key, y, cls in (("t3_g", g, CubicClass.C1), ("t3_g2", g * g, CubicClass.C2)):
        closed = counting.twisted3_closed(data, cls, theta_source)
        recursed = counting.count_twisted(data, 3, cls, theta_source)
        brute = oracle.brute_twisted(f31, 3, y)
        ok = closed == recursed == brute == expected[key]
        checks.append(_check(
            f"example/{key}", ok,
            {"closed": closed, "recurrence": recursed, "brute": brute},
            expected[key],
        ))
    return checks


def reproduce_example(theta_source: str = "exact") -> dict:
    checks = check_example_reproduction(theta_source)
    status = "PASS" if all(c.status == "pass" for c in checks) else "FAIL"
    return {"status": status, "checks": [c.to_dict() for c in checks]}


# ---------------------------------------------------------------------------
# oracle equivalence


def check_oracle_equivalence() -> list[Check]:
    """Closed forms equal brute force on every supported field: all targets
    exhaustively for q <= 31, zero plus one representative per class above."""
    checks = []
    for q, (p, k) in SUPPORTED_FIELDS.items():
        field = make_field(p, k)
        data = cubic_data(field)
        mismatches = []
        compared = 0
        exhaustive = q <= 31
        reps = {cls: field.representative(cls) for cls in NONZERO_CLASSES}
        for s in range(1, _max_s(q) + 1):
            vector = oracle.diagonal_count_vector(field, s)
            targets = field.elements() if exhaustive else [field.zero, *reps.values()]
            for z in targets:
                cls = CubicClass.ZERO if z.is_zero() else field.cube_class(z)
                compared += 1
                closed = counting.count_diagonal(data, s, cls)
                if closed != vector[int(z)]:
                    mismatches.append((s, str(z), closed, vector[int(z)]))
        for s in range(2, _max_s(q) + 1):
            if exhaustive:
                ys = [z for z in field.nonzero_elements()
                      if field.cube_class(z) in NONCUBIC_CLASSES]
            else:
                ys = [reps[CubicClass.C1], reps[CubicClass.C2]]
            for y in ys:
                compared += 1
                closed = counting.count_twisted(data, s, field.cube_class(y))
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


def _least_primitive_root(p: int) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in prime_factors(p - 1)):
            return g
    raise AssertionError(f"no primitive root mod {p}")


def check_constants_integrity(jacobi_bound: int = JACOBI_SCAN_BOUND) -> list[Check]:
    """Per-field constants invariants, plus the prime scan: for every prime
    p = 1 (mod 3) up to the bound, the Cornacchia route equals the direct
    sum, which has norm p, w-coefficient divisible by 3, and (r1, r2)
    satisfying the defining congruence with the r2 sign uniquely selected
    by it."""
    checks = []
    for q, (p, k) in SUPPORTED_FIELDS.items():
        field = make_field(p, k)
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
        if k % 2 == 1:
            ok = ok and data.theta == data.theta_paper
        checks.append(_check(f"constants/q={q}", ok, "all invariants hold" if ok else "violation", "invariants"))

    scanned = 0
    failures = []
    for p in primes_up_to(jacobi_bound):
        if p % 3 != 1:
            continue
        gen = _least_primitive_root(p)
        j_sum = jacobi_sum_direct(p, gen)  # asserts norm and divisibility
        j_fast = jacobi_sum_cubic(p, gen)
        if j_fast != j_sum:
            failures.append((p, f"Cornacchia route gives {j_fast}, direct sum gives {j_sum}"))
        r1, r2 = r_pair(j_sum, p)
        t = pow(gen, (p - 1) // 3, p)
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
    """Double-precision confirmations of the analytic identities, all fields."""
    checks = []
    for q, (p, k) in SUPPORTED_FIELDS.items():
        field = make_field(p, k)
        data = cubic_data(field)
        sqrt_q = math.sqrt(q)
        cubic_tol = 1e-5 * q ** 1.5
        worst: dict[str, float] = {}

        g_sum = oracle.gauss_sum_numeric(field)
        g_conj = oracle.conjugate_gauss_sum_numeric(field)
        worst["gauss-modulus"] = abs(abs(g_sum) - sqrt_q)
        worst["gauss-product"] = abs(g_sum * g_conj - q)
        worst["gauss-cubed-sum"] = abs(g_sum ** 3 + g_conj ** 3 - data.c * q)
        worst["gauss-cubed-exact"] = abs(g_sum ** 3 / q - data.gauss_cubed_over_q.to_complex())

        g = field.g
        s_values = [oracle.cubic_exp_sum_numeric(field, g ** i) for i in (1, 2, 3)]
        worst["power-sum-cubic"] = max(abs(s ** 3 - 3 * q * s - q * data.c) for s in s_values)
        worst["power-sum-total"] = abs(sum(s_values))
        worst["power-sum-period"] = abs(oracle.cubic_exp_sum_numeric(field, g ** 4) - s_values[0])
        worst["power-sum-decomposition"] = max(
            abs(oracle.cubic_exp_sum_numeric(field, h)
                - (field.cubic_character(h).to_complex().conjugate() * g_sum
                   + field.cubic_character(h).to_complex() * g_conj))
            for h in field.nonzero_elements()
        )
        ortho = oracle.orthogonality_check(field)
        worst["orthogonality"] = ortho.max_error
        if field.k == 1:
            j_exact = jacobi_sum_cubic(p, field.g.norm()).to_complex()
            worst["jacobi-numeric"] = abs(oracle.jacobi_sum_numeric(field) - j_exact)

        tolerances = {
            "gauss-modulus": 1e-9 * sqrt_q,
            "gauss-product": 1e-6 * q,
            "gauss-cubed-sum": cubic_tol,
            "gauss-cubed-exact": 1e-6 * sqrt_q,
            "power-sum-cubic": cubic_tol,
            "power-sum-total": 1e-6 * sqrt_q,
            "power-sum-period": 1e-9,
            "power-sum-decomposition": 1e-6 * sqrt_q,
            "orthogonality": 1e-6,
            "jacobi-numeric": 1e-6 * math.sqrt(p),
        }
        for name, err in worst.items():
            checks.append(Check(
                f"numeric/{name}/q={q}",
                "pass" if err <= tolerances[name] else "fail",
                err, f"<= {tolerances[name]:.3g}", tolerances[name],
            ))
    return checks


# ---------------------------------------------------------------------------
# mod-4 sign rule


def check_mod4_sign_rule(prime_bound: int = MOD4_PRIME_BOUND) -> list[Check]:
    """For every prime p = 1 (mod 3), p <= bound, with 2 non-cubic: the mod-4
    signed d equals -delta_y * d for both non-cubic classes, and T_3 computed
    through it agrees with the closed form and with brute force."""
    checks = []
    applicable = []
    failures = []
    for p in primes_up_to(prime_bound):
        if p % 3 != 1:
            continue
        field = make_field(p)
        if field.cube_class(field.element([2])) is CubicClass.C0:
            continue  # the rule is stated only for 2 non-cubic
        applicable.append(p)
        data = cubic_data(field)
        for cls in NONCUBIC_CLASSES:
            signed = counting.signed_d_mod4(field, cls)
            if signed != -delta(data, cls) * data.d:
                failures.append((p, str(cls), "sign", signed, -delta(data, cls) * data.d))
            t3_mod4 = p * p + (p - 1) * (-data.c + 9 * signed) // 2
            t3_closed = counting.twisted3_closed(data, cls)
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
        detail="counts use the exact theta; request theta_source='paper' to see the failure",
    ))
    return checks


def check_bijective_fields() -> list[Check]:
    """q != 1 (mod 3): every count is q^(s-1), closed form and brute force."""
    checks = []
    for q, (p, k) in TRIVIAL_FIELDS.items():
        field = make_field(p, k)
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
    checks: list[Check] = []
    checks += check_example_reproduction()
    checks += check_oracle_equivalence()
    checks += check_constants_integrity(jacobi_bound if jacobi_bound is not None else JACOBI_SCAN_BOUND)
    checks += check_numeric_identities()
    checks += check_mod4_sign_rule(mod4_prime_bound if mod4_prime_bound is not None else MOD4_PRIME_BOUND)
    checks += check_even_degree_adjudication()
    checks += check_bijective_fields()
    passed = sum(1 for c in checks if c.status == "pass")
    failed = sum(1 for c in checks if c.status == "fail")
    warned = sum(1 for c in checks if c.status == "warn")
    return {
        "checks": [c.to_dict() for c in checks],
        "passed": passed,
        "failed": failed,
        "warnings": warned,
        "ok": failed == 0,
    }
