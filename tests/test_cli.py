import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcubic import CubicClass, cli, count_diagonal, counting, cubic_data, make_field, verify


needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before Python 3.11"
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstantsCommand:
    def test_f31(self, capsys):
        code, out = run_cli(capsys, "constants", "--p", "31", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == {
            "q": 31, "p": 31, "k": 1, "c": 4, "d": 2, "r1": 4, "r2": 2,
            "theta": 1, "theta_paper": 1, "gauss_cubed_over_q": "5+6*w",
        }
        assert payload["warnings"] == []

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "constants", "--p", "31")
        _, second = run_cli(capsys, "constants", "--p", "31")
        assert first == second

    def test_large_prime(self):
        # p ~ 10^12: Cornacchia gives J at once, and no (c, d) search runs
        proc = subprocess.run(
            [sys.executable, "-m", "diagcubic", "constants", "--p", "1000000000039"],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        result = json.loads(proc.stdout)["result"]
        assert (result["c"], result["d"]) == (-320657, 379921)
        assert 4 * 1000000000039 == result["c"] ** 2 + 27 * result["d"] ** 2

    def test_above_the_search_cap(self, capsys):
        # q is past the cap of cd_search, which cubic_data does not run
        p = 10000000000051
        code, out = run_cli(capsys, "constants", "--p", str(p))
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["c"], result["d"], result["r1"], result["r2"], result["theta"]) == (
            2695573, 1101075, 2695573, -1101075, -1
        )
        assert result["gauss_cubed_over_q"] == "-303826-3303225*w"
        self._check_independent_facts(result, g_norm=2)

    def test_degree_thirteen(self, capsys):
        # trial division would need about 13^6 divisors per candidate modulus
        code, out = run_cli(capsys, "constants", "--p", "13", "--k", "13")
        assert code == 0
        payload = json.loads(out)
        assert payload["query"]["field"] == "13^13/1,12,0,0,0,0,0,0,0,0,0,0,0,1/0,2,0,0,0,0,0,0,0,0,0,0,0"
        result = payload["result"]
        assert (result["q"], result["c"], result["d"], result["r1"], result["r2"], result["theta"]) == (
            13 ** 13, 17755915, 5761391, -5, -1, 1
        )
        assert result["gauss_cubed_over_q"] == "17520044+17284173*w"
        # g = 2t has norm (-1)^13 * 2^13 * 1 mod 13, the constant term of the modulus being 1
        self._check_independent_facts(result, g_norm=-(2 ** 13) % 13)

    @staticmethod
    def _check_independent_facts(result, g_norm):
        """|M|^2 = q, 4q = c^2 + 27 d^2 with the side conditions, and the r-pair
        with its congruence 9*r2 = (2t + 1)*r1 (mod p), t = norm(g)^((p-1)/3)."""
        p, q, c, d, r1, r2 = (result[key] for key in ("p", "q", "c", "d", "r1", "r2"))
        a, b = (int(part) for part in result["gauss_cubed_over_q"][:-2].replace("-", "+-").split("+") if part)
        assert a * a - a * b + b * b == q
        assert 4 * q == c * c + 27 * d * d and c % 3 == 1 and d >= 0 and c % p != 0
        assert 2 * a - b == c and abs(b) == 3 * d
        t = pow(g_norm, (p - 1) // 3, p)
        assert 4 * p == r1 * r1 + 27 * r2 * r2 and r1 % 3 == 1
        assert (9 * r2 - (2 * t + 1) * r1) % p == 0

    def test_theta_mismatch_warning(self, capsys):
        code, out = run_cli(capsys, "constants", "--p", "7", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["theta"] == -1
        assert payload["result"]["theta_paper"] == 0
        assert payload["warnings"][0]["code"] == "theta-parity-rule-mismatch"

    def test_null_r_pair(self, capsys):
        _, out = run_cli(capsys, "constants", "--p", "2", "--k", "2")
        payload = json.loads(out)
        assert payload["result"]["r1"] is None and payload["result"]["r2"] is None

    def test_generator_override_changes_output(self, capsys):
        _, canonical = run_cli(capsys, "constants", "--p", "7", "--k", "2")
        _, overridden = run_cli(capsys, "constants", "--p", "7", "--k", "2", "--generator", "3,1")
        assert json.loads(canonical)["result"]["theta"] == -1
        assert json.loads(overridden)["result"]["theta"] == 1
        assert json.loads(overridden)["result"]["gauss_cubed_over_q"] == "8+3*w"


class TestCountCommand:
    def test_zero_target(self, capsys):
        code, out = run_cli(capsys, "count", "--p", "7", "--k", "1", "--s", "2", "--z", "zero")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["value"] == 19
        # the echoed query is the field's textual form
        assert payload["query"]["field"] == make_field(7).to_string() == "7^1/0,1/3"

    def test_concrete_element(self, capsys):
        _, out = run_cli(capsys, "count", "--p", "7", "--s", "2", "--z", "6")
        result = json.loads(out)["result"]
        assert result["value"] == 6
        assert result["cubic_class"] == "c0"

    def test_twisted(self, capsys):
        _, out = run_cli(capsys, "count", "--p", "31", "--s", "3", "--y", "3")
        assert json.loads(out)["result"]["value"] == 1171
        _, out = run_cli(capsys, "count", "--p", "31", "--s", "3", "--y", "c2")
        assert json.loads(out)["result"]["value"] == 631

    def test_bijective_regime(self, capsys):
        _, out = run_cli(capsys, "count", "--p", "5", "--s", "3", "--z", "4")
        assert json.loads(out)["result"]["value"] == 25
        code, _ = run_cli(capsys, "count", "--p", "5", "--s", "3", "--z", "c1")
        assert code == 2  # classes are undefined there

    def test_s_zero_warning(self, capsys):
        _, out = run_cli(capsys, "count", "--p", "7", "--s", "0", "--z", "zero")
        payload = json.loads(out)
        assert payload["result"]["value"] == 1
        assert any(w["code"] == "empty-tuple-convention" for w in payload["warnings"])

    def test_target_validation(self, capsys):
        code, out = run_cli(capsys, "count", "--p", "7", "--s", "2")
        assert code == 2 and "error" in json.loads(out)
        code, _ = run_cli(capsys, "count", "--p", "7", "--s", "2", "--z", "zero", "--y", "3")
        assert code == 2
        code, _ = run_cli(capsys, "count", "--p", "7", "--s", "2", "--y", "6")
        assert code == 2  # 6 is a cube, the twisted count needs a non-cube

    def test_integrity_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "count", "--p", "7", "--k", "2", "--s", "2", "--z", "c1", "--theta-source", "paper"
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "integrity"


class TestSeriesCommand:
    def test_diagonal_json(self, capsys):
        _, out = run_cli(capsys, "series", "--p", "7", "--z", "zero", "--n-terms", "3")
        result = json.loads(out)["result"]
        assert result["coefficients"] == [1, 19, 55]
        assert result["s_start"] == 1

    def test_twisted_series(self, capsys):
        _, out = run_cli(capsys, "series", "--p", "31", "--y", "c1", "--n-terms", "2")
        result = json.loads(out)["result"]
        assert result["coefficients"] == [1, 1171]
        assert result["s_start"] == 2

    def test_tsv_rows(self, capsys):
        _, out = run_cli(capsys, "series", "--p", "7", "--z", "zero", "--n-terms", "3", "--format", "tsv")
        assert out.splitlines() == ["1\t1", "2\t19", "3\t55"]

    def test_rejects_bijective_regime(self, capsys):
        code, _ = run_cli(capsys, "series", "--p", "5", "--z", "zero")
        assert code == 2


class TestValidationErrors:
    def test_unknown_arguments(self, capsys):
        code, out = run_cli(capsys, "count", "--p", "7", "--s", "2", "--z", "zero", "--bogus")
        assert code == 2 and json.loads(out)["error"]["type"] == "validation"

    def test_composite_characteristic(self, capsys):
        code, _ = run_cli(capsys, "constants", "--p", "9")
        assert code == 2

    def test_reducible_modulus(self, capsys):
        code, _ = run_cli(capsys, "constants", "--p", "7", "--k", "2", "--modulus", "5,0,1")
        assert code == 2

    def test_non_generator(self, capsys):
        code, _ = run_cli(capsys, "count", "--p", "7", "--s", "1", "--z", "zero", "--generator", "2")
        assert code == 2

    def test_bad_element(self, capsys):
        code, _ = run_cli(capsys, "count", "--p", "7", "--s", "1", "--z", "1,2")
        assert code == 2

    @pytest.mark.parametrize("field, generator", [
        (("--p", "7"), "10"), (("--p", "7", "--k", "2"), "10,8"),
    ], ids=["F_7", "F_49"])
    def test_generator_out_of_range(self, capsys, field, generator):
        # 10 = 3 (mod 7) generates F_7, but coefficients are not reduced
        code, out = run_cli(capsys, "constants", *field, f"--generator={generator}")
        assert code == 2
        assert json.loads(out)["error"]["message"] == "generator coefficients must lie in [0, 7)"

    @pytest.mark.parametrize("option", ["--modulus", "--generator"])
    def test_empty_coefficient_list(self, capsys, option):
        code, out = run_cli(capsys, "constants", "--p", "7", "--k", "2", option, "")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "validation", "message": "bad coefficient list ''"}


class TestVerifyCommands:
    def test_reproduce_example_passes(self, capsys):
        code, out = run_cli(capsys, "reproduce-example")
        assert code == 0
        assert json.loads(out)["result"]["status"] == "PASS"

    def test_verify_fault_injection(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "JACOBI_SCAN_BOUND", 300)
        monkeypatch.setitem(verify.EXAMPLE_EXPECTED, "t3_g", 1172)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert json.loads(out)["result"]["ok"] is False

    def test_reproduce_example_fault_injection(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.EXAMPLE_EXPECTED, "c", 5)
        code, out = run_cli(capsys, "reproduce-example")
        assert code == 1
        payload = json.loads(out)
        assert payload["result"]["status"] == "FAIL"
        failing = [c for c in payload["result"]["checks"] if c["status"] == "fail"]
        assert failing and failing[0]["name"] == "example/c"

    def test_verify_suite(self, capsys, monkeypatch):
        # keep the CLI test quick; the full bounds run in the acceptance suite
        monkeypatch.setattr(verify, "JACOBI_SCAN_BOUND", 300)
        code, out = run_cli(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["ok"] is True
        assert payload["result"]["failed"] == 0
        assert any(w["code"] == "check-warning" for w in payload["warnings"])

    def test_verify_tsv(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "JACOBI_SCAN_BOUND", 300)
        code, out = run_cli(capsys, "verify", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert all(len(line.split("\t")) == 2 for line in lines)
        assert any(line.endswith("warn") for line in lines)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diagcubic", "count", "--p", "7", "--s", "2", "--z", "zero"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["value"] == 19


class TestOutputCap:
    """Counts print exactly up to the output cap and are refused above it."""

    @staticmethod
    def _exact(value: int) -> str:
        # in-process CLI calls restore the interpreter's int-to-str limit
        # (4300 digits by default), so the expected text lifts it here
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            return str(value)
        old = sys.get_int_max_str_digits()
        set_limit(0)
        try:
            return str(value)
        finally:
            set_limit(old)

    def test_count_beyond_default_int_limit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diagcubic", "count", "--p", "31", "--s", "3000", "--z", "c1"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        expected = count_diagonal(cubic_data(make_field(31)), 3000, CubicClass.C1)
        assert len(self._exact(expected)) > 4300
        assert f'"value": {self._exact(expected)}}}' in proc.stdout

    def test_tsv_and_series_beyond_default_int_limit(self, capsys):
        data = cubic_data(make_field(31))
        code, out = run_cli(capsys, "count", "--p", "31", "--s", "3000", "--z", "c1", "--format", "tsv")
        assert code == 0
        assert f"value\t{self._exact(count_diagonal(data, 3000, CubicClass.C1))}" in out.splitlines()
        code, out = run_cli(capsys, "series", "--p", "31", "--z", "c1", "--n-terms", "3000", "--format", "tsv")
        assert code == 0
        assert out.splitlines()[-1] == f"3000\t{self._exact(count_diagonal(data, 3000, CubicClass.C1))}"

    def test_cap_boundary(self, capsys):
        # q = 2 has one digit, so s = cap is the largest count allowed
        cap = cli._MAX_OUTPUT_DIGITS
        code, out = run_cli(capsys, "count", "--p", "2", "--s", str(cap), "--z", "1", "--format", "tsv")
        assert code == 0
        assert f"value\t{self._exact(2 ** (cap - 1))}" in out.splitlines()
        for argv in (
            ["count", "--p", "2", "--s", str(cap + 1), "--z", "1"],
            ["count", "--p", "31", "--s", str(cap // 2 + 1), "--y", "c1"],
            ["series", "--p", "7", "--z", "zero", "--n-terms", str(cap)],
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 2
            assert out.count("\n") == 1
            assert json.loads(out)["error"]["type"] == "resource"

    @needs_int_limit
    @pytest.mark.parametrize("limit", (4300, 640, 0))
    @pytest.mark.parametrize("argv, code", [
        (("constants", "--p", "31"), 0),
        (("count", "--p", "31", "--s", "3000", "--z", "c1"), 0),
        (("count", "--p", "31", "--s", "3000", "--y", "c1", "--format", "tsv"), 0),
        (("series", "--p", "31", "--z", "c1", "--n-terms", "3000", "--format", "tsv"), 0),
        (("verify", "--format", "tsv"), 0),
        (("count", "--p", "31", "--s", "3", "--z", "1", "--y", "3"), 2),
        (("count", "--p", "2", "--s", "100001", "--z", "1"), 2),
        (("count", "--p", "7", "--k", "2", "--s", "3", "--y", "c1", "--theta-source", "paper"), 3),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_int_limit_left_as_found(self, capsys, monkeypatch, argv, code, limit):
        # the limit is raised only while the payload is rendered, and the
        # process-wide value is the caller's again afterwards
        monkeypatch.setattr(verify, "JACOBI_SCAN_BOUND", 300)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(old)

    @needs_int_limit
    def test_output_independent_of_the_int_limit(self, capsys):
        outputs = set()
        old = sys.get_int_max_str_digits()
        try:
            for limit in (4300, 640, 0):
                sys.set_int_max_str_digits(limit)
                outputs.add(run_cli(capsys, "count", "--p", "31", "--s", "3000", "--z", "c1"))
        finally:
            sys.set_int_max_str_digits(old)
        [(code, out)] = outputs
        expected = count_diagonal(cubic_data(make_field(31)), 3000, CubicClass.C1)
        assert code == 0 and f'"value": {self._exact(expected)}}}' in out


class TestResourceRefusals:
    """Requests beyond a size cap end as one resource-error line, exit 2."""

    @pytest.mark.parametrize("argv", [
        # the modulus scan skips the binomials t^5 + a (5 does not divide p - 1),
        # and factoring q - 1 = p^5 - 1 for the generator refuses
        ["constants", "--p", "1000003", "--k", "5"],
        ["count", "--p", "1000003", "--k", "5", "--s", "3", "--z", "zero"],
        # p - 1 = 2 * 1000003 * 1000121: a composite cofactor beyond the trial-division bound
        ["constants", "--p", "2000248000727"],
        # one irreducibility test of degree 200 costs about twice the cap
        ["constants", "--p", "13", "--k", "200"],
        # beyond the deterministic Miller-Rabin range
        ["constants", "--p", "10000000000000000000000000000057"],
    ], ids=" ".join)
    def test_constants_beyond_cap(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "diagcubic", *argv], capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["error"]["type"] == "resource"

    def test_series_total_cap_boundary(self, capsys, monkeypatch):
        # q = 7 has one digit: n terms may print up to (n+1)(n+2)/2 digits
        monkeypatch.setattr(cli, "_MAX_SERIES_DIGITS", 91)
        code, out = run_cli(capsys, "series", "--p", "7", "--z", "c1", "--n-terms", "12")
        assert code == 0 and len(json.loads(out)["result"]["coefficients"]) == 12
        for flag in ("--z", "--y"):
            code, out = run_cli(capsys, "series", "--p", "7", flag, "c1", "--n-terms", "13")
            assert code == 2
            assert json.loads(out)["error"]["type"] == "resource"

    def test_series_total_cap_default(self, capsys):
        # each count of this window is under the per-count cap, the whole is not
        code, out = run_cli(capsys, "series", "--p", "31", "--z", "c1", "--n-terms", "49999")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "resource"
        code, out = run_cli(capsys, "series", "--p", "97", "--k", "2", "--z", "zero", "--n-terms", "500")
        assert code == 0
        assert len(json.loads(out)["result"]["coefficients"]) == 500
        # a negative window is a validation error, however large
        code, out = run_cli(capsys, "series", "--p", "7", "--z", "zero", "--n-terms", "-100000")
        assert (code, json.loads(out)["error"]["type"]) == (2, "validation")


#: q = 13^24 and 3^52: fields whose construction takes a few tenths of a second
Q_13_24, Q_3_52 = 13**24, 3**52

FACTORING_REFUSAL = "factoring 2000248000726 needs trial divisors above 1000000: the cofactor 1000124000363 is composite"

#: (argv, error type, message) of requests refused on argv and q alone
ARGV_ONLY_REFUSALS = [
    (("count", "--p", "13", "--k", "24", "--s", "3"), "validation",
     "give exactly one of --z (plain target) or --y (twisted coefficient)"),
    (("count", "--p", "13", "--k", "24", "--s", "100000", "--z", "zero"), "resource",
     f"counts with s = 100000 over F_{Q_13_24} may have up to 2700000 digits, above the output cap of 100000"),
    (("count", "--p", "3", "--k", "52", "--s", "2", "--y", "c1"), "validation",
     f"every element of F_{Q_3_52} is a cube (q = 0 mod 3): no non-cubic coefficient exists"),
    (("constants", "--p", "3", "--k", "52"), "validation",
     f"q = {Q_3_52} = 0 (mod 3): the counting constants are not defined"),
    (("series", "--p", "3", "--k", "52", "--z", "zero"), "validation",
     f"series require q = 1 (mod 3); q = {Q_3_52} counts are q^(s-1) throughout"),
    (("series", "--p", "13", "--k", "24", "--z", "zero", "--y", "c1"), "validation", "give exactly one of --z or --y"),
    (("series", "--p", "13", "--k", "24", "--z", "zero", "--n-terms", "2000"), "resource",
     f"a series of 2000 terms over F_{Q_13_24} may print up to 54081027 digits, above the total cap of 10000000"),
    (("count", "--p", "3", "--k", "52", "--s", "2", "--z", "c1"), "validation",
     f"classes c1/c2 are undefined for q = {Q_3_52} = 0 (mod 3)"),
    (("series", "--p", "13", "--k", "24", "--z", "c0", "--n-terms", "0"), "validation", "need at least one coefficient"),
    (("count", "--p", "13", "--k", "24", "--s", "-1", "--z", "zero"), "validation", "s must be nonnegative"),
    (("count", "--p", "13", "--k", "24", "--s", "1", "--y", "c1"), "validation",
     "twisted counts need at least two variables"),
]

#: (argv, message): the field's own checks, and factoring q - 1 (p - 1 here has the
#: cofactor 1000003 * 1000121), keep their place ahead of the argv-only ones
FIELD_CHECKS_FIRST = [
    (("constants", "--p", "2000248000727"), FACTORING_REFUSAL),
    (("series", "--p", "2000248000727", "--z", "zero"), FACTORING_REFUSAL),
    (("count", "--p", "2000248000727", "--s", "3"), FACTORING_REFUSAL),
    (("count", "--p", "7", "--k", "2", "--modulus", "1,0,1", "--generator", "x", "--s", "3"), "bad coefficient list 'x'"),
    (("count", "--p", "9", "--s", "3"), "9 is not prime"),
    (("series", "--p", "31", "--k", "0", "--z", "zero", "--y", "c1"), "extension degree must be positive"),
    (("count", "--p", "7", "--k", "300", "--modulus", "1,0,1", "--s", "3"), "modulus must be monic of degree 300"),
    (("constants", "--p", "3", "--k", "3", "--modulus", "3,0,0,1"), "modulus coefficients must lie in [0, 3)"),
]


class TestArgvOnlyRefusals:
    """A request refused on argv and q = p^k alone is refused before any field
    is built, with the message it had when the field came first."""

    @pytest.mark.parametrize("argv, kind, message", [pytest.param(*row, id=" ".join(row[0])) for row in ARGV_ONLY_REFUSALS])
    def test_no_field_built(self, capsys, monkeypatch, argv, kind, message):
        def no_field(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(cli, "make_field", no_field)
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (2, {"error": {"type": kind, "message": message}})

    @pytest.mark.parametrize("argv, message", [pytest.param(*row, id=" ".join(row[0])) for row in FIELD_CHECKS_FIRST])
    def test_field_checks_come_first(self, capsys, argv, message):
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)["error"]["message"]) == (2, message)


class TestInternalErrors:
    def test_unexpected_exception_is_one_json_error(self, capsys, monkeypatch):
        def boom(args):
            raise KeyError("unexpected")

        monkeypatch.setitem(cli._HANDLERS, "constants", boom)
        code, out = run_cli(capsys, "constants", "--p", "7")
        assert code == 3
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "internal" and "KeyError" in error["message"]


#: option -> small values, valid and not; fields stay small so each call is quick
_FUZZ_OPTIONS = {
    "--p": ("1", "2", "3", "4", "5", "7", "13", "31", "-7", "x"),
    "--k": ("0", "1", "2", "3", "-1"),
    "--s": ("-1", "0", "1", "2", "3", "9", "x"),
    "--n-terms": ("-1", "0", "1", "2", "7"),
    "--z": ("zero", "c0", "c1", "c2", "0", "1", "3", "0,1", "1,2", "1,2,3,4", "x", ""),
    "--y": ("zero", "c0", "c1", "c2", "1", "3", "0,1", "x"),
    "--modulus": ("1,0,1", "1,1,1", "3,0,1", "1", "x", ""),
    "--generator": ("3", "3,1", "0,1", "0", "x", "10", "9,0", ""),
    "--theta-source": ("exact", "paper", "bogus"),
    "--format": ("json", "tsv"),
}


def _one_json_object(out: str) -> dict:
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert isinstance(payload, dict)
    return payload


class TestArgvFuzz:
    """Any argv for constants/count/series ends in a declared exit code with
    exactly one JSON object, or TSV on success -- never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(("constants", "count", "series")),
        field=st.tuples(st.sampled_from(("2", "5", "7", "13", "31")), st.sampled_from(("1", "2", "3"))),
        target=st.tuples(st.sampled_from(("--z", "--y")), st.sampled_from(("zero", "c0", "c1", "c2", "1", "3"))),
        s=st.sampled_from(("0", "1", "2", "3", "9")),
        overrides=st.lists(
            st.sampled_from(sorted(_FUZZ_OPTIONS)).flatmap(
                lambda name: st.tuples(st.just(name), st.sampled_from(_FUZZ_OPTIONS[name]))
            ),
            max_size=3,
        ),
        stray=st.lists(st.sampled_from(("--bogus", "zero", "7", "--p")), max_size=1),
    )
    def test_exit_codes_and_output(self, command, field, target, s, overrides, stray):
        # a well-formed request, then options overridden with values valid or not
        options = [("--p", field[0]), ("--k", field[1])]
        options += [target] * (command != "constants") + [("--s", s)] * (command == "count")
        options += overrides
        argv = [command, *(token for pair in options for token in pair), *stray]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        out = buffer.getvalue()
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert set(_one_json_object(out)) == {"error"}
        elif dict(options).get("--format") == "tsv":
            assert out.endswith("\n") and all("\t" in line for line in out.splitlines())
        else:
            assert set(_one_json_object(out)) == {"query", "result", "warnings"}


class TestCharacteristicThree:
    """Fields of characteristic 3 are answered, and refusals print the true residue."""

    def test_count_answered(self, capsys):
        code, out = run_cli(capsys, "count", "--p", "3", "--k", "4", "--s", "3", "--z", "zero")
        assert code == 0
        assert json.loads(out)["result"]["value"] == 81 ** 2

    def test_element_label(self, capsys):
        code, out = run_cli(capsys, "count", "--p", "3", "--k", "2", "--s", "3", "--z", "1,1")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["cubic_class"], result["value"]) == ("cube (q = 0 mod 3)", 81)

    @pytest.mark.parametrize("argv, message", [
        (("constants", "--p", "3", "--k", "2"), "q = 9 = 0 (mod 3): the counting constants are not defined"),
        (("count", "--p", "3", "--s", "2", "--z", "c1"), "classes c1/c2 are undefined for q = 3 = 0 (mod 3)"),
        (("count", "--p", "3", "--k", "3", "--s", "2", "--y", "1,0,0"),
         "every element of F_27 is a cube (q = 0 mod 3): no non-cubic coefficient exists"),
    ])
    def test_refusal_messages(self, capsys, argv, message):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["message"] == message


def _paper_refused(q: int, theta: int) -> dict:
    """The error of a non-cubic count under the parity rule's theta 0."""
    return {
        "type": "integrity",
        "message": f"the parity rule gives theta = 0, the exact theta is {theta} for q = {q}: "
                   "theta source 'paper' is inconsistent with this field",
    }


#: (--p, --k, q, exact theta) for fields q = p^2 with p = 1 (mod 3), where the
#: parity rule's theta 0 is wrong: c is odd for q = 49 and 169, so its second
#: seed is a half-integer; c is even for q = 961 and 1849 (2 is a cube mod 31
#: and mod 43), so its counts are integers, and wrong
PARITY_RULE_WRONG = [
    pytest.param(p, "2", q, theta, id=f"F_{q}")
    for p, q, theta in (("7", 49, -1), ("13", 169, 1), ("31", 961, -1), ("43", 1849, 1))
]

#: fields where the parity rule's theta is the exact one: q = 4, 64 (theta = 0
#: on both rules), 7, 31 and 343 (odd degree)
PARITY_RULE_RIGHT = [("2", "2"), ("7", "1"), ("31", "1"), ("2", "6"), ("7", "3")]

NONCUBIC_TARGETS = (("--z", "c1"), ("--z", "c2"), ("--y", "c1"), ("--y", "c2"))


class TestTwistedIntegrity:
    def test_half_integer_series_fails_like_the_count(self, capsys):
        # the twisted series takes its seeds from the diagonal ones, guard included
        paper = ("--p", "7", "--k", "2", "--y", "c1", "--theta-source", "paper")
        series = run_cli(capsys, "series", *paper)
        count = run_cli(capsys, "count", "--s", "3", *paper)
        assert series == count
        code, out = series
        assert code == 3
        assert json.loads(out)["error"] == _paper_refused(49, -1)

    @pytest.mark.parametrize("s", ("2", "3", "20000"))
    @pytest.mark.parametrize("target", NONCUBIC_TARGETS)
    def test_paper_theta_refused_on_f49_at_any_s(self, capsys, s, target):
        # the theta is checked before any power is taken, small s or large
        code, out = run_cli(capsys, "count", "--p", "7", "--k", "2", "--s", s, *target, "--theta-source", "paper")
        assert code == 3
        assert json.loads(out)["error"] == _paper_refused(49, -1)

    @pytest.mark.parametrize("s", ("2", "3", "20000"))
    @pytest.mark.parametrize("target", NONCUBIC_TARGETS)
    @pytest.mark.parametrize("p, k, q, theta", PARITY_RULE_WRONG[1:])
    def test_paper_theta_refused_at_any_s(self, capsys, p, k, q, theta, target, s):
        code, out = run_cli(capsys, "count", "--p", p, "--k", k, "--s", s, *target, "--theta-source", "paper")
        assert code == 3
        assert json.loads(out)["error"] == _paper_refused(q, theta)

    @pytest.mark.parametrize("target", NONCUBIC_TARGETS)
    @pytest.mark.parametrize("p, k, q, theta", PARITY_RULE_WRONG)
    def test_paper_theta_refused_for_series(self, capsys, p, k, q, theta, target):
        code, out = run_cli(capsys, "series", "--p", p, "--k", k, *target, "--theta-source", "paper")
        assert code == 3
        assert json.loads(out)["error"] == _paper_refused(q, theta)

    @pytest.mark.parametrize("target, value", ((("--y", "c1"), 866881), (("--y", "c2"), 936001)))
    def test_exact_theta_where_two_is_a_cube(self, capsys, target, value):
        # oracle.brute_twisted(make_field(31, 2), 3, y, max_q=1000) gives the same
        # values; the parity rule's theta 0 would give 901441 for both classes
        code, out = run_cli(capsys, "count", "--p", "31", "--k", "2", "--s", "3", *target)
        assert code == 0
        assert json.loads(out)["result"]["value"] == value

    @pytest.mark.parametrize("s", ("3", "20000"))
    def test_paper_theta_refused_after_exact_counts(self, capsys, s):
        # exact-theta counts fill the power memo first; the refusal neither
        # reads nor changes it
        for p, k, q, theta in (("7", "2", 49, -1), ("31", "2", 961, -1)):
            for target in NONCUBIC_TARGETS:
                assert run_cli(capsys, "count", "--p", p, "--k", k, "--s", s, *target)[0] == 0
            memos = (counting._cube_power, counting._q_power)
            warm = [memo.cache_info() for memo in memos]
            assert all(info.currsize for info in warm)
            for target in NONCUBIC_TARGETS:
                code, out = run_cli(capsys, "count", "--p", p, "--k", k, "--s", s, *target, "--theta-source", "paper")
                assert code == 3
                assert json.loads(out)["error"] == _paper_refused(q, theta)
            assert [memo.cache_info() for memo in memos] == warm

    @pytest.mark.parametrize("p, k, q, theta", PARITY_RULE_WRONG)
    def test_paper_theta_unused_for_cubic_targets(self, capsys, p, k, q, theta):
        # zero and the cubes never read theta: both sources print the same bytes
        for target in ("zero", "c0"):
            for argv in (("count", "--s", "3"), ("count", "--s", "20000"), ("series",)):
                argv = (*argv, "--p", p, "--k", k, "--z", target)
                exact = run_cli(capsys, *argv)
                assert exact[0] == 0
                assert run_cli(capsys, *argv, "--theta-source", "paper") == exact

    @pytest.mark.parametrize("p, k", PARITY_RULE_RIGHT, ids="^".join)
    def test_paper_theta_changes_nothing_elsewhere(self, capsys, p, k):
        commands = [("count", "--s", str(s)) for s in (*range(1, 7), 1000)] + [("series", "--n-terms", "20")]
        for option in ("--z", "--y"):
            for keyword in ("zero", "c0", "c1", "c2"):
                for command in commands:
                    argv = (*command, "--p", p, "--k", k, option, keyword)
                    assert run_cli(capsys, *argv, "--theta-source", "paper") == run_cli(capsys, *argv)


#: (command, option) -> (the other arguments, two values of the option): the
#: two calls differ only in that value, and each option must change the output
OPTION_EFFECTS = {
    ("constants", "--p"): ((), "31", "37"),
    ("constants", "--k"): (("--p", "7"), "1", "2"),
    ("constants", "--modulus"): (("--p", "7", "--k", "2"), "1,0,1", "3,1,1"),
    ("constants", "--generator"): (("--p", "31"), "3", "11"),
    ("constants", "--format"): (("--p", "31"), "json", "tsv"),
    ("count", "--p"): (("--s", "3", "--z", "zero"), "7", "13"),
    ("count", "--k"): (("--p", "7", "--s", "3", "--z", "zero"), "1", "2"),
    ("count", "--modulus"): (("--p", "7", "--k", "2", "--s", "3", "--z", "c1"), "1,0,1", "3,1,1"),
    ("count", "--generator"): (("--p", "31", "--s", "3", "--z", "7"), "3", "11"),
    ("count", "--s"): (("--p", "7", "--z", "zero"), "2", "3"),
    ("count", "--z"): (("--p", "7", "--s", "3"), "zero", "c1"),
    ("count", "--y"): (("--p", "31", "--s", "3"), "c1", "c2"),
    ("count", "--theta-source"): (("--p", "7", "--k", "2", "--s", "3", "--y", "c1"), "exact", "paper"),
    ("count", "--format"): (("--p", "7", "--s", "2", "--z", "zero"), "json", "tsv"),
    ("series", "--p"): (("--z", "zero"), "7", "13"),
    ("series", "--k"): (("--p", "7", "--z", "zero"), "1", "2"),
    ("series", "--modulus"): (("--p", "7", "--k", "2", "--z", "c1"), "1,0,1", "3,1,1"),
    ("series", "--generator"): (("--p", "31", "--z", "7"), "3", "11"),
    ("series", "--z"): (("--p", "7"), "zero", "c1"),
    ("series", "--y"): (("--p", "31"), "c1", "c2"),
    ("series", "--n-terms"): (("--p", "7", "--z", "zero"), "3", "4"),
    ("series", "--theta-source"): (("--p", "7", "--k", "2", "--y", "c1"), "exact", "paper"),
    ("series", "--format"): (("--p", "7", "--z", "zero"), "json", "tsv"),
    ("verify", "--format"): ((), "json", "tsv"),
    ("reproduce-example", "--format"): ((), "json", "tsv"),
}


def _parser_options(parser: argparse.ArgumentParser):
    """(command, option) for every option of every subcommand but --help."""
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            yield from ((command, option) for option in action.option_strings if option not in ("-h", "--help"))


class TestNoInertOption:
    """Every option the parser accepts changes what a call prints."""

    def test_every_option_has_an_effect_entry(self):
        assert sorted(_parser_options(cli.build_parser())) == sorted(OPTION_EFFECTS)

    @pytest.mark.parametrize("command, option", sorted(OPTION_EFFECTS), ids=" ".join)
    def test_option_changes_the_output(self, capsys, monkeypatch, command, option):
        monkeypatch.setattr(verify, "JACOBI_SCAN_BOUND", 300)
        rest, first, second = OPTION_EFFECTS[command, option]
        outputs = [run_cli(capsys, command, *rest, option, value) for value in (first, second)]
        assert outputs[0] != outputs[1]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestBrokenPipe:
    """A reader that closes stdout early ends the command quietly, with the
    exit code the command had decided and stdout pointed at devnull."""

    @pytest.mark.parametrize("argv, code", [
        (("series", "--p", "7", "--z", "zero"), 0),
        (("count", "--p", "7", "--s", "1", "--y", "c1"), 2),
        (("count", "--p", "7", "--k", "2", "--s", "3", "--y", "c1", "--theta-source", "paper"), 3),
    ])
    def test_write_raises(self, capsys, monkeypatch, tmp_path, argv, code):
        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
            assert cli.main(list(argv)) == code
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    def test_reader_closes_early(self):
        # about 0.4 MB of output, far beyond a pipe's buffer, so the writer
        # is still writing when the reader goes
        argv = [sys.executable, "-m", "diagcubic", "series", "--p", "13", "--k", "4", "--z", "c1", "--n-terms", "400"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(600).startswith(b'{"query": ')
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")
        proc.stderr.close()
