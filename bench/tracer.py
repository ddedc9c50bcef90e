"""Spans around diagcubic's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function at every module attribute
that holds it (the defining module and every module that imported it by
name), so calls made inside the package are recorded too; `uninstall()`
puts the originals back.  The per-element `fields` kernel (FieldElement
arithmetic, `cube_class`) is never wrapped: it runs hundreds of thousands of
times per pass and is measured by probes instead.

Each span is [name, layer, start, end, parent index, tag].  A function's
`*_ms` figure is its inclusive time, counting nested calls to the same name
once; a layer's `self_ms` is span time minus the time its child spans cover,
so the self times of all layers plus `trace.uncovered_ms` add up to the
traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import update_wrapper

from workloads import S_BUCKETS, cd_search_loops, s_bucket

LAYERS = ("fields", "ntheory", "eisenstein", "constants", "counting", "oracle", "verify", "cli")

#: layer -> (defining module, traced function names)
TRACED = {
    "fields": ("diagcubic.fields", ("make_field", "find_irreducible", "find_generator", "parse_element")),
    "ntheory": ("diagcubic.ntheory", ("is_prime", "prime_factors", "primes_up_to")),
    "eisenstein": ("diagcubic.eisenstein", ("jacobi_sum_cubic", "r_pair")),
    "constants": ("diagcubic.constants", ("cubic_data", "cd_search", "theta_exact", "theta_sign_rule")),
    "counting": ("diagcubic.counting", (
        "count_diagonal", "count_twisted", "diagonal_series", "twisted_series",
        "twisted3_closed", "signed_d_mod4", "bijective_count",
    )),
    "oracle": ("diagcubic.oracle", (
        "cube_histogram", "diagonal_count_vector", "brute_diagonal", "brute_twisted",
        "gauss_sum_numeric", "conjugate_gauss_sum_numeric", "cubic_exp_sum_numeric",
        "jacobi_sum_numeric", "orthogonality_check",
    )),
    "verify": ("diagcubic.verify", (
        "full_report", "reproduce_example", "check_example_reproduction", "check_oracle_equivalence",
        "check_constants_integrity", "check_numeric_identities", "check_mod4_sign_rule",
        "check_even_degree_adjudication", "check_bijective_fields",
    )),
    "cli": ("diagcubic.cli", ("main",)),
}

NUMERIC_SUMS = ("gauss_sum_numeric", "conjugate_gauss_sum_numeric", "cubic_exp_sum_numeric",
                "jacobi_sum_numeric", "orthogonality_check")

VERIFY_GROUPS = {
    "verify.example_ms": "check_example_reproduction",
    "verify.oracle_equivalence_ms": "check_oracle_equivalence",
    "verify.constants_integrity_ms": "check_constants_integrity",
    "verify.numeric_identities_ms": "check_numeric_identities",
    "verify.mod4_sign_rule_ms": "check_mod4_sign_rule",
    "verify.even_degree_ms": "check_even_degree_adjudication",
    "verify.bijective_ms": "check_bijective_fields",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.convolutions: list[tuple] = []  # (field, s) per diagonal_count_vector call
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _on_call(self, name, args, kwargs):
        """Counters recorded at call time; returns the span tag."""
        c = self.counters
        if name == "jacobi_sum_cubic":
            c["eisenstein.jacobi_calls"] += 1
            c["eisenstein.jacobi_terms"] += _arg(args, kwargs, 0, "p") - 2
        elif name == "cd_search":
            c["constants.cd_search_calls"] += 1
            c["constants.cd_search_iters"] += cd_search_loops(_arg(args, kwargs, 0, "q"))
        elif name == "count_diagonal":
            return s_bucket(_arg(args, kwargs, 1, "s"))
        elif name in ("diagonal_series", "twisted_series"):
            c["counting.terms_requested"] += _arg(args, kwargs, 2, "n")
        elif name == "diagonal_count_vector":
            self.convolutions.append((_arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "s")))
        elif name in NUMERIC_SUMS:
            c["oracle.numeric_sum_calls"] += 1
        return None

    def _on_return(self, name, result):
        if name == "full_report":
            self.counters["verify.checks"] += len(result["checks"])
            self.counters["verify.failed"] += result["failed"]

    def wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            tag = self._on_call(name, args, kwargs)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tag]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            self._on_return(name, result)
            return result

        return update_wrapper(traced, fn)

    def install(self) -> list[str]:
        """Wrap every traced function wherever diagcubic binds it; returns the missing names."""
        missing = []
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "diagcubic" and m]
        for layer, (owner, names) in TRACED.items():
            home = sys.modules.get(owner)
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    missing.append(f"{owner}.{name}")
                    continue
                wrapper = self.wrap(name, layer, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return missing

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        out = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            out[f"{s[1]}.self_ms"] += (dur[i] - child[i]) * 1e3
        covered = sum(dur[i] for i, s in enumerate(spans) if s[4] < 0)
        out["trace.uncovered_ms"] = (wall_s - covered) * 1e3

        incl: dict[tuple, float] = defaultdict(float)
        for i, s in enumerate(spans):
            if not self._inside_same_name(i):
                incl[s[0], None] += dur[i] * 1e3
                if s[5]:
                    incl[s[0], s[5]] += dur[i] * 1e3

        def ms(*names, tag=None):
            return sum(incl[n, tag] for n in names)

        out["fields.make_field_ms"] = ms("make_field")
        out["eisenstein.jacobi_sum_ms"] = ms("jacobi_sum_cubic")
        out["constants.cubic_data_ms"] = ms("cubic_data")
        out["constants.cd_search_ms"] = ms("cd_search")
        for bucket in S_BUCKETS:
            out[f"counting.count_diagonal_ms.{bucket}"] = ms("count_diagonal", tag=bucket)
        out["counting.count_twisted_ms"] = ms("count_twisted")
        out["counting.series_ms"] = ms("diagonal_series", "twisted_series")
        out["oracle.convolution_ms"] = ms("diagonal_count_vector")
        out["oracle.brute_twisted_ms"] = ms("brute_twisted")
        out["oracle.numeric_sums_ms"] = self._outermost_group_ms(NUMERIC_SUMS, dur)
        for metric, name in VERIFY_GROUPS.items():
            out[metric] = ms(name)
        for key in ("eisenstein.jacobi_calls", "eisenstein.jacobi_terms", "constants.cd_search_calls",
                    "constants.cd_search_iters", "counting.terms_requested", "oracle.numeric_sum_calls",
                    "verify.checks", "verify.failed"):
            out[key] = self.counters[key]
        out["oracle.convolution_products"] = sum(convolution_products(f, s) for f, s in self.convolutions)
        return out

    def _inside_same_name(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def _outermost_group_ms(self, names, dur) -> float:
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] in names:
                parent = s[4]
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][4]
                if parent < 0:
                    total += dur[i] * 1e3
        return total


_PRODUCTS: dict[tuple, int] = {}


def convolution_products(field, s: int) -> int:
    """Multiply-adds the s-fold convolution performs: |support| times the
    nonzero entries of each intermediate distribution, summed over its s - 1
    steps.  Derived from the field's cube set by set arithmetic on base-p
    codes, independently of the oracle's code."""
    p, k = field.p, field.k
    key = (p, k, tuple(field.modulus), s)
    if key not in _PRODUCTS:
        cubes = {_code(x ** 3, p) for x in field.elements()}
        reach, total = set(cubes), 0
        for _ in range(s - 1):
            total += len(cubes) * len(reach)
            reach = {_add_codes(a, b, p, k) for a in reach for b in cubes}
        _PRODUCTS[key] = total
    return _PRODUCTS[key]


def _code(x, p: int) -> int:
    value = 0
    for c in reversed(x.coeffs):
        value = value * p + c
    return value


def _add_codes(a: int, b: int, p: int, k: int) -> int:
    out, scale = 0, 1
    for _ in range(k):
        out += ((a % p + b % p) % p) * scale
        a, b, scale = a // p, b // p, scale * p
    return out
