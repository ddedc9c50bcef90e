"""Command-line surface: constants, counts, series, verification, worked example.

Commands
--------
constants          emit q, p, k, c, d, r1, r2, theta, theta_paper, gauss_cubed_over_q
count              one exact count: --z for a plain target, --y for a twisted one
series             a window of counts: --z for N_1..N_n, --y for T_2..T_{n+1}
verify             run the full cross-validation suite
reproduce-example  the F_31 worked example, PASS/FAIL

Fields are selected with --p/--k plus optional --modulus/--generator overrides
(little-endian comma-separated coefficients); targets are class keywords
(zero|c0|c1|c2) or concrete elements in the same coefficient syntax.

Output is deterministic JSON ({"query": ..., "result": ..., "warnings": [...]})
or TSV.  Exit codes: 0 success, 1 verification failure, 2 validation or
resource error (counts longer than the output cap, a series window longer
than the total cap, a field beyond a size cap of the primality test, the
factoring of q - 1, the irreducibility test or the (c, d) search), 3
integrity or internal error; errors are emitted as JSON objects.  Counts use
the exact theta: on count and series, --theta-source paper, the parity rule's
theta, is an integrity error for a non-cubic class wherever the two differ
(q = p^(2m), p = 1 (mod 3)).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constants import CubicData, _refuse_undefined, cubic_data
from .counting import (_refuse_empty_window, _refuse_negative_s, _refuse_short_twisted, bijective_count,
                       count_diagonal, count_twisted, diagonal_series, twisted_series)
from .errors import DomainError, IntegrityError, ResourceError
from .fields import NONCUBIC_CLASSES, CubicClass, FieldDescriptor, _field_order, make_field, parse_element
from .ntheory import prime_factors

#: Largest count the CLI prints, in decimal digits.  A request whose counts
#: could be longer is refused with a resource error before any counting.
_MAX_OUTPUT_DIGITS = 100_000

#: Largest series window the CLI prints, in decimal digits of all its counts.
_MAX_SERIES_DIGITS = 10_000_000

_CLASS_KEYWORDS = {cls.value: cls for cls in CubicClass}


class _Parser(argparse.ArgumentParser):
    # surface argparse problems as validation errors with JSON output
    def error(self, message):
        raise DomainError(message)


def _add_field_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sub.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sub.add_argument("--modulus", help="modulus coefficients c0,c1,...,ck (little-endian, monic)")
    sub.add_argument("--generator", help="generator coefficients c0,...,c{k-1}")


def _add_theta_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--theta-source", choices=("exact", "paper"), default="exact",
                     help="exact (default), or paper: refuse non-cubic counts where the parity rule's theta differs")


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diagcubic", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("constants", help="field constants as JSON")
    _add_field_options(sub)
    _add_format_option(sub)

    sub = commands.add_parser("count", help="one exact zero count")
    _add_field_options(sub)
    sub.add_argument("--s", type=int, required=True, help="number of variables")
    sub.add_argument("--z", help="target: element coefficients or zero|c0|c1|c2")
    sub.add_argument("--y", help="twisted coefficient: element or c1|c2 (non-cubic)")
    _add_theta_option(sub)
    _add_format_option(sub)

    sub = commands.add_parser("series", help="window of counts from the generating function")
    _add_field_options(sub)
    sub.add_argument("--z", help="target: element coefficients or zero|c0|c1|c2")
    sub.add_argument("--y", help="twisted coefficient: element or c1|c2 (non-cubic)")
    sub.add_argument("--n-terms", type=int, default=8, help="number of coefficients (default 8)")
    _add_theta_option(sub)
    _add_format_option(sub)

    sub = commands.add_parser("verify", help="run the full cross-validation suite")
    _add_format_option(sub)

    sub = commands.add_parser("reproduce-example", help="the F_31 worked example")
    _add_format_option(sub)
    return parser


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad coefficient list {text!r}") from exc


def _resolve_field(args, refuse) -> FieldDescriptor:
    """The field of args; refuse(args, q) runs before the field's search, so a request it refuses builds none."""
    modulus = _parse_coeffs(args.modulus) if args.modulus is not None else None
    generator = _parse_coeffs(args.generator) if args.generator is not None else None
    q = _field_order(args.p, args.k, modulus)
    prime_factors(q - 1)  # refuses as the generator search would, which reads it from the memo
    refuse(args, q)
    return make_field(args.p, args.k, modulus, generator)


def _field_query(args, field: FieldDescriptor) -> dict:
    return {"command": args.command, "field": field.to_string()}


def _check_output_digits(q: int, s: int) -> None:
    """Refuse counts of up to s variables that could exceed the output cap:
    such a count is at most q^s, which has at most s * digits(q) digits."""
    bound = s * len(str(q))
    if bound > _MAX_OUTPUT_DIGITS:
        raise ResourceError(
            f"counts with s = {s} over F_{q} may have up to {bound} digits, "
            f"above the output cap of {_MAX_OUTPUT_DIGITS}"
        )


def _data_warnings(data: CubicData) -> list[dict]:
    if data.theta != data.theta_paper:
        return [{
            "code": "theta-parity-rule-mismatch",
            "message": (
                f"exact theta = {data.theta} but the even-degree parity rule gives "
                f"{data.theta_paper}; counts use the exact theta, and --theta-source paper is refused "
                f"for non-cubic targets on this field"
            ),
        }]
    return []


def _count_constants(field: FieldDescriptor, cls: CubicClass, theta_source: str) -> tuple[CubicData, list[dict]]:
    """The constants and their warnings for counts of class cls, refusing the
    parity rule's theta for a non-cubic class wherever it is not the exact one."""
    data = cubic_data(field)
    if theta_source == "paper" and cls in NONCUBIC_CLASSES and data.theta_paper != data.theta:
        raise IntegrityError(
            f"the parity rule gives theta = {data.theta_paper}, the exact theta is {data.theta} "
            f"for q = {data.q}: theta source 'paper' is inconsistent with this field"
        )
    return data, _data_warnings(data)


def _resolve_target(field: FieldDescriptor, text: str) -> tuple[CubicClass, str, dict]:
    """Class keyword or concrete element -> (class, canonical label, extra result keys)."""
    keyword = text.strip().lower()
    if keyword in _CLASS_KEYWORDS:
        return _CLASS_KEYWORDS[keyword], keyword, {}
    z = parse_element(field, text)
    if z.is_zero():
        return CubicClass.ZERO, str(z), {"cubic_class": "zero"}
    if field.q % 3 != 1:
        return CubicClass.C0, str(z), {"cubic_class": f"cube (q = {field.q % 3} mod 3)"}
    cls = field.cube_class(z)
    return cls, str(z), {"cubic_class": cls.value}


def _run_constants(args) -> tuple[dict, int]:
    field = _resolve_field(args, lambda args, q: _refuse_undefined(q))
    data = cubic_data(field)
    result = {
        "q": data.q, "p": data.p, "k": data.k,
        "c": data.c, "d": data.d, "r1": data.r1, "r2": data.r2,
        "theta": data.theta, "theta_paper": data.theta_paper,
        "gauss_cubed_over_q": str(data.gauss_cubed_over_q),
    }
    return {"query": _field_query(args, field), "result": result, "warnings": _data_warnings(data)}, 0


def _count_refusals(args, q: int) -> None:
    if (args.z is None) == (args.y is None):
        raise DomainError("give exactly one of --z (plain target) or --y (twisted coefficient)")
    _check_output_digits(q, args.s)
    if q % 3 != 1:
        if args.y is not None:
            raise DomainError(f"every element of F_{q} is a cube (q = {q % 3} mod 3): no non-cubic coefficient exists")
        if _CLASS_KEYWORDS.get(args.z.strip().lower()) in NONCUBIC_CLASSES:
            raise DomainError(f"classes c1/c2 are undefined for q = {q} = {q % 3} (mod 3)")
    if args.y is not None:
        _refuse_short_twisted(args.s)
    else:
        _refuse_negative_s(args.s)


def _run_count(args) -> tuple[dict, int]:
    field = _resolve_field(args, _count_refusals)
    if args.y is not None:
        cls, label, extra = _resolve_target(field, args.y)
        data, warnings = _count_constants(field, cls, args.theta_source)
        value = count_twisted(data, args.s, cls)
        result = {"q": field.q, "s": args.s, "target": label, "kind": "twisted", "value": value, **extra}
    else:
        cls, label, extra = _resolve_target(field, args.z)
        if field.q % 3 == 1:
            data, warnings = _count_constants(field, cls, args.theta_source)
            value = count_diagonal(data, args.s, cls)
        else:
            warnings = []
            value = bijective_count(field.q, args.s, cls is CubicClass.ZERO)
        if args.s == 0:
            warnings.append({
                "code": "empty-tuple-convention",
                "message": "s = 0 uses the empty-tuple convention and is not part of the series proper",
            })
        result = {"q": field.q, "s": args.s, "target": label, "kind": "diagonal", "value": value, **extra}
    return {"query": {**_field_query(args, field), "s": args.s}, "result": result, "warnings": warnings}, 0


def _series_refusals(args, q: int) -> None:
    """Refuse, among the rest, a window of counts with s = 1..n_terms+1 variables
    whose digits, at most sum of s * digits(q), could exceed the total cap."""
    if (args.z is None) == (args.y is None):
        raise DomainError("give exactly one of --z or --y")
    if q % 3 != 1:
        raise DomainError(f"series require q = 1 (mod 3); q = {q} counts are q^(s-1) throughout")
    _refuse_empty_window(args.n_terms)
    s_max = args.n_terms + 1
    _check_output_digits(q, s_max)
    bound = len(str(q)) * s_max * (s_max + 1) // 2
    if bound > _MAX_SERIES_DIGITS:
        raise ResourceError(
            f"a series of {args.n_terms} terms over F_{q} may print up to {bound} digits, "
            f"above the total cap of {_MAX_SERIES_DIGITS}"
        )


def _run_series(args) -> tuple[dict, int]:
    field = _resolve_field(args, _series_refusals)
    cls, label, extra = _resolve_target(field, args.z if args.y is None else args.y)
    data, warnings = _count_constants(field, cls, args.theta_source)
    if args.y is not None:
        coeffs = twisted_series(data, cls, args.n_terms)
        result = {"q": field.q, "target": label, "kind": "twisted", "s_start": 2,
                  "coefficients": list(coeffs), **extra}
    else:
        window = diagonal_series(data, cls, args.n_terms)
        result = {"q": field.q, "target": label, "kind": "diagonal", "s_start": 1,
                  "coefficients": list(window.coefficients), **extra}
    return {"query": {**_field_query(args, field), "n_terms": args.n_terms}, "result": result, "warnings": warnings}, 0


def _run_verify(args) -> tuple[dict, int]:
    from . import verify  # the suite and its oracle load only for the two commands that run them
    report = verify.full_report()
    warnings = [
        {"code": "check-warning", "message": f"{c['name']}: {c['observed']}"}
        for c in report["checks"] if c["status"] == "warn"
    ]
    payload = {"query": {"command": "verify"}, "result": report, "warnings": warnings}
    return payload, 0 if report["ok"] else 1


def _run_reproduce(args) -> tuple[dict, int]:
    from . import verify
    report = verify.reproduce_example()
    payload = {
        "query": {"command": "reproduce-example"},
        "result": report,
        "warnings": [],
    }
    return payload, 0 if report["status"] == "PASS" else 1


_HANDLERS = {
    "constants": _run_constants,
    "count": _run_count,
    "series": _run_series,
    "verify": _run_verify,
    "reproduce-example": _run_reproduce,
}


def _tsv_lines(result: dict) -> list[str]:
    if "coefficients" in result:
        start = result.get("s_start", 1)
        return [f"{start + i}\t{v}" for i, v in enumerate(result["coefficients"])]
    if "checks" in result:
        return [f"{c['name']}\t{c['status']}" for c in result["checks"]]
    return [f"{key}\t{result[key]}" for key in sorted(result)]


def _render(payload: dict, fmt: str) -> str:
    # Python >= 3.11 converts at most 4300 digits by default (0 means no limit);
    # every count under the output cap prints exactly, and the interpreter's
    # own limit is restored for whatever runs next in the process
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    raised = 0 < limit < _MAX_OUTPUT_DIGITS
    if raised:
        sys.set_int_max_str_digits(_MAX_OUTPUT_DIGITS)
    try:
        if fmt == "tsv":
            return "\n".join(_tsv_lines(payload["result"]))
        return json.dumps(payload, sort_keys=True)
    finally:
        if raised:
            sys.set_int_max_str_digits(limit)


def _error(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True)


def _respond(argv: list[str] | None) -> tuple[str, int]:
    """The text to print and the exit code for one invocation."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = _HANDLERS[args.command](args)
        return _render(payload, args.format), code
    except DomainError as exc:
        return _error("validation", str(exc)), 2
    except ResourceError as exc:
        return _error("resource", str(exc)), 2
    except IntegrityError as exc:
        return _error("integrity", str(exc)), 3
    except Exception as exc:  # anything else is a bug: one JSON error, never a traceback
        return _error("internal", f"{type(exc).__name__}: {exc}"), 3


def main(argv: list[str] | None = None) -> int:
    text, code = _respond(argv)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
