"""Acceptance suite: every criterion exercised end to end, one line each.

Each test drives the relevant cross-validation group at its full stated
scope, asserts that no check failed, and prints a single
[ACCEPTANCE] PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from diagcubic import (
    CubicClass,
    bijective_count,
    count_diagonal,
    cubic_data,
    make_field,
    verify,
)
from diagcubic.oracle import diagonal_count_vector


def _assert_and_report(name, checks, time_budget=None, elapsed=None):
    failed = [c for c in checks if c.status == "fail"]
    ok = not failed and (time_budget is None or elapsed <= time_budget)
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({elapsed:.2f}s < {time_budget}s)" if time_budget else ""))
    assert not failed, failed
    if time_budget is not None:
        assert elapsed <= time_budget, f"{elapsed:.2f}s exceeds the {time_budget}s budget"


def test_criterion_1_example_reproduction():
    """F_31, g = 3: c, d, r1, r2, both sign factors, and T_3 on both classes,
    matched exactly by the closed form and by brute force, within 1 s."""
    start = time.perf_counter()
    checks = verify.check_example_reproduction()
    elapsed = time.perf_counter() - start
    values = {c.name: c for c in checks}
    assert values["example/t3_g"].expected == 1171
    assert values["example/t3_g2"].expected == 631
    _assert_and_report("criterion 1 (worked example)", checks, 1.0, elapsed)


def test_criterion_2_oracle_equivalence():
    """Closed form == brute force with zero tolerance: q in the supported
    list, s <= 4 (s <= 6 for q <= 16), exhaustive targets for q <= 31,
    within 60 s."""
    start = time.perf_counter()
    checks = verify.check_oracle_equivalence()
    elapsed = time.perf_counter() - start
    _assert_and_report("criterion 2 (oracle equivalence)", checks, 60.0, elapsed)


def test_criterion_3_constants_integrity():
    """Uniqueness of (c, d), exact Gauss-cube reproduction of it, and the
    Jacobi-sum invariants for every prime p = 1 (mod 3) up to 10^4,
    within 30 s."""
    start = time.perf_counter()
    checks = verify.check_constants_integrity(jacobi_bound=10_000)
    elapsed = time.perf_counter() - start
    scan = [c for c in checks if c.name == "jacobi-scan"][0]
    assert "611 primes" in str(scan.observed)
    _assert_and_report("criterion 3 (constants integrity)", checks, 30.0, elapsed)


def test_criterion_4_analytic_identities():
    """The character-sum identities as exact equalities in Z[w][zeta_p] on
    every supported field, none with a tolerance."""
    checks = verify.check_numeric_identities()
    _assert_and_report("criterion 4 (analytic identities)", checks)


def test_criterion_5_mod4_sign_rule():
    """For every prime p <= 200 with p = 1 (mod 3) and 2 non-cubic: the mod-4
    signed d equals -delta_y * d on both non-cubic classes and T_3 agrees
    with brute force."""
    checks = verify.check_mod4_sign_rule(prime_bound=200)
    observed = str(checks[0].observed)
    for p in (7, 13, 19, 37, 61, 79, 97):
        assert str(p) in observed
    _assert_and_report("criterion 5 (mod-4 sign rule)", checks)


def test_criterion_6_even_degree_adjudication():
    """q = 49: the brute-force pair counts decide theta.  The exact-path
    counts match the oracle on both non-cubic classes; the parity rule's
    theta = 0 is impossible by integrality and is surfaced as a warning."""
    checks = verify.check_even_degree_adjudication()
    statuses = {c.name: c.status for c in checks}
    assert statuses["even-degree/parity-rule-deviation"] == "warn"

    # the oracle's own numbers: the two non-cubic pair counts at q = 49 are
    # {36, 45}; which class carries which is decided by the generator, and
    # the exact theta must point at the right one
    field = verify.supported_field(49)
    data = cubic_data(field)
    vector = diagonal_count_vector(field, 2)
    brute = {cls: vector[int(field.representative(cls))] for cls in (CubicClass.C1, CubicClass.C2)}
    assert sorted(brute.values()) == [36, 45]
    for cls, value in brute.items():
        assert count_diagonal(data, 2, cls) == value
    _assert_and_report("criterion 6 (even-degree adjudication)", checks)


def test_criterion_7_bijective_cube_sanity():
    """q in {2, 5, 8, 11} and characteristic 3 (q in {3, 9, 27, 81}): every
    count is q^(s-1), closed form and brute force, s <= 4, all targets."""
    checks = verify.check_bijective_fields()
    for q, (p, k) in verify.TRIVIAL_FIELDS.items():
        field = make_field(p, k)
        for s in (1, 4):
            assert bijective_count(q, s, True) == q ** (s - 1)
    _assert_and_report("criterion 7 (bijective-cube sanity)", checks)


def test_full_report_is_green():
    report = verify.full_report()
    assert report["ok"] is True
    assert report["failed"] == 0
    assert report["warnings"] >= 1  # the documented parity-rule finding


def test_jacobi_scan_coverage_is_pinned():
    """The full report scans every prime p = 1 (mod 3) up to 10^4, so a faster
    witness cannot come from a narrower scan."""
    assert verify.JACOBI_SCAN_BOUND == 10_000
    report = verify.full_report()
    scan = [c for c in report["checks"] if c["name"] == "jacobi-scan"][0]
    assert scan["status"] == "pass"
    assert scan["observed"] == "611 primes verified"
    assert scan["detail"].endswith("p <= 10000")
    bijective = [c["name"] for c in report["checks"] if c["name"].startswith("bijective/")]
    assert bijective == [f"bijective/q={q}" for q in (2, 5, 8, 11, 3, 9, 27, 81)]
