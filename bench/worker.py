"""One benchmark pass in a fresh interpreter, so the package's caches start cold.

    python3 bench/worker.py pass   <workload> <seed> <quick 0|1> <traced 0|1>
    python3 bench/worker.py probes <workload> <seed> <quick 0|1>

Run by run.py with PYTHONPATH pointing at the checkout's src/.  Prints one
JSON object on stdout.  The timed region covers only the workload's calls;
resident memory is read right after it, and the correctness gate runs after
that.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

import diagcubic  # noqa: E402  (the path check below needs it imported)
from diagcubic import cli, constants, counting, fields, ntheory, verify  # noqa: E402
from diagcubic.fields import CubicClass  # noqa: E402

if Path(diagcubic.__file__).resolve().parent != ROOT / "src" / "diagcubic":
    sys.exit(f"imported diagcubic from {diagcubic.__file__}, not from this checkout")

CLASSES = (CubicClass.ZERO, CubicClass.C0, CubicClass.C1, CubicClass.C2)


# -- op lists: (label, callable) ---------------------------------------------------


def ladder_ops(quick):
    def op(p, k):
        field = fields.make_field(p, k)
        return field, constants.cubic_data(field) if field.q % 3 == 1 else None
    return [(f"{p}^{k}", lambda p=p, k=k: op(p, k))
            for p, k in (wl.LADDER_FIELDS_QUICK if quick else wl.LADDER_FIELDS)]


def counts_ops(quick):
    field_list = wl.COUNT_FIELDS_QUICK if quick else wl.COUNT_FIELDS
    s_list = wl.COUNT_S_QUICK if quick else wl.COUNT_S
    n = wl.SERIES_TERMS_QUICK if quick else wl.SERIES_TERMS
    ops = []
    for p, k in field_list:
        data = constants.cubic_data(fields.make_field(p, k))  # constants are not this workload's subject
        for s in s_list:
            for cls in CLASSES:
                ops.append(((p, k, "N", s, cls), lambda d=data, s=s, c=cls: counting.count_diagonal(d, s, c)))
            for cls in CLASSES[2:]:
                ops.append(((p, k, "T", s, cls), lambda d=data, s=s, c=cls: counting.count_twisted(d, s, c)))
        ops.append(((p, k, "Nseries", n, CubicClass.ZERO),
                    lambda d=data: counting.diagonal_series(d, CubicClass.ZERO, n).coefficients))
        ops.append(((p, k, "Tseries", n, CubicClass.C1),
                    lambda d=data: counting.twisted_series(d, CubicClass.C1, n)))
    return ops


def verify_ops(quick):
    if quick:
        return [("full_report", lambda: verify.full_report(jacobi_bound=100, mod4_prime_bound=50))]
    return [("full_report", verify.full_report)]


def cli_ops(seed, quick):
    """In-process cli.main over the cli-mix invocations a process can survive."""
    invs = [inv for inv in wl.round_order(wl.cli_mix(seed, quick), seed, 0) if not inv.known_defect]
    return [(inv, lambda inv=inv: _main_captured(inv.argv)) for inv in invs]


def _main_captured(argv):
    """(exit code, stdout, stderr) of cli.main, with an escaping exception as exit 1."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            return cli.main(argv), buffer.getvalue(), ""
        except Exception as exc:
            return 1, buffer.getvalue(), f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}"


OPS = {"constants-ladder": ladder_ops, "counts-deep": counts_ops, "verify-suite": verify_ops}


# -- gates: list of (label, problem) per failed op -----------------------------------------


def gate_ladder(results):
    bad = []
    for label, (field, data) in results:
        p, k = (int(x) for x in label.split("^"))
        problems = []
        if (field.p, field.k, field.q) != (p, k, p ** k) or len(field.modulus) != k + 1:
            problems.append("field parameters")
        if k == 1 and not wl.is_primitive_root(field.g.coeffs[0], p):
            problems.append(f"generator {field.g} is not a primitive root mod {p}")
        if data is not None:
            problems += wl.cd_problems(data.q, data.c, data.d)
            m = data.gauss_cubed_over_q
            if m.a * m.a - m.a * m.b + m.b * m.b != data.q:
                problems.append(f"norm of {m} != q")
            if p % 3 == 1 and (4 * p != data.r1 ** 2 + 27 * data.r2 ** 2 or data.r1 % 3 != 1):
                problems.append("r-pair")
            if k == 1 and p % 3 == 1:  # the r2 sign: 9 r2 = (2t + 1) r1 (mod p), t = g^((p-1)/3)
                t = pow(field.g.coeffs[0], (p - 1) // 3, p)
                if (9 * data.r2 - (2 * t + 1) * data.r1) % p:
                    problems.append("r2 sign fails the congruence")
        bad += [(label, x) for x in problems]
    return bad


def gate_counts(results):
    """Class-partition identities at every s, the series tails, and brute force on prime fields."""
    got = dict(results)
    bad = []
    fields_seen = sorted({(p, k) for p, k, *_ in got})
    for p, k in fields_seen:
        q = p ** k
        s_values = sorted({s for (pp, kk, kind, s, _) in got if (pp, kk, kind) == (p, k, "N")})
        for s in s_values:
            n = [got[p, k, "N", s, cls] for cls in CLASSES]
            if n[0] + (q - 1) // 3 * (n[1] + n[2] + n[3]) != q ** s:
                bad.append(((p, k, s), "N_s(0) + (q-1)/3 * sum of class counts != q^s"))
            t1, t2 = got[p, k, "T", s, CubicClass.C1], got[p, k, "T", s, CubicClass.C2]
            if n[0] + t1 + t2 != 3 * q ** (s - 1):
                bad.append(((p, k, s), "N_s(0) + T_s(c1) + T_s(c2) != 3 q^(s-1)"))
        (series_key,) = [key for key in got if key[:3] == (p, k, "Nseries")]
        (twisted_key,) = [key for key in got if key[:3] == (p, k, "Tseries")]
        n_terms = series_key[3]
        data = constants.cubic_data(fields.make_field(p, k))
        if got[series_key][-1] != counting.count_diagonal(data, n_terms, CubicClass.ZERO):
            bad.append((series_key, "diagonal series tail != count_diagonal"))
        if got[twisted_key][-1] != counting.count_twisted(data, n_terms + 1, CubicClass.C1):
            bad.append((twisted_key, "twisted series tail != count_twisted"))
        if k == 1:
            bad += _brute_prime_field(p, data, got, got[series_key])
    return bad


def _brute_prime_field(p, data, got, series):
    """Counts at s = BRUTE_S and the series head against the benchmark's own convolution."""
    g = fields.make_field(p).g.coeffs[0]
    if not wl.is_primitive_root(g, p):
        return [((p, 1), f"generator {g} is not a primitive root")]
    s = wl.BRUTE_S
    dists = wl.brute_distributions(p, s)
    rep = {CubicClass.ZERO: 0, CubicClass.C0: 1, CubicClass.C1: g, CubicClass.C2: g * g % p}
    bad = []
    for cls, v in rep.items():
        if (p, 1, "N", s, cls) in got and got[p, 1, "N", s, cls] != dists[s - 1][v]:
            bad.append(((p, 1, s, str(cls)), "N_s differs from brute force"))
        if cls in (CubicClass.C1, CubicClass.C2) and (p, 1, "T", s, cls) in got:
            scaled = [0] * p  # #{x : y x^3 = u}
            for x in range(p):
                scaled[v * x * x * x % p] += 1
            brute_t = sum(dv * scaled[-u % p] for u, dv in enumerate(dists[s - 2]))
            if got[p, 1, "T", s, cls] != brute_t:
                bad.append(((p, 1, s, str(cls)), "T_s differs from brute force"))
    head = [dists[i][0] for i in range(min(s, len(series)))]
    if list(series[: len(head)]) != head:
        bad.append(((p, 1), "diagonal series head differs from brute force"))
    return bad


EXPECTED_WARNINGS = {"even-degree/parity-rule-deviation"}


def gate_verify(results):
    bad = []
    for label, report in results:
        warned = {c["name"] for c in report["checks"] if c["status"] == "warn"}
        failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        if not report["ok"] or report["failed"] != 0 or failed:
            bad.append((label, f"failed checks {failed}"))
        if warned != EXPECTED_WARNINGS:
            bad.append((label, f"warnings {sorted(warned)}, expected {sorted(EXPECTED_WARNINGS)}"))
    return bad


def gate_cli(results):
    bad = []
    for inv, (code, out, err) in results:
        verdict, reason = wl.judge_invocation(inv, code, out, err)
        if verdict != "ok":
            bad.append((inv.label, reason))
    return bad


GATES = {"constants-ladder": gate_ladder, "counts-deep": gate_counts,
         "verify-suite": gate_verify, "cli-mix": gate_cli}


# -- modes ---------------------------------------------------------------------------


def run_pass(workload, seed, quick, traced):
    ops = cli_ops(seed, quick) if workload == "cli-mix" else OPS[workload](quick)
    tracer = Tracer() if traced else None
    missing = tracer.install() if tracer else []
    results, op_ms = [], []
    clock = time.perf_counter
    try:
        start = clock()
        for label, call in ops:
            t0 = clock()
            try:
                value = call()
            except Exception as exc:  # a failing op is recorded and gated, never fatal
                value = exc
            op_ms.append((clock() - t0) * 1e3)
            results.append((label, value))
        wall = clock() - start
    finally:
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = [(label, f"{type(v).__name__}: {v}") for label, v in results if isinstance(v, Exception)]
    try:
        bad += GATES[workload]([(label, v) for label, v in results if not isinstance(v, Exception)])
    except (KeyError, ValueError) as exc:  # a result the gate needs is missing
        bad.append(("gate", f"{type(exc).__name__}: {exc}"))
    failed = min(len(ops), len({str(label) for label, _ in bad}))
    out = {"wall_s": wall, "op_ms": op_ms, "rss_mb": rss_mb, "attempted": len(ops), "failed": failed,
           "problems": [f"{a}: {b}" for a, b in bad][:20]}
    if tracer:
        out["layers"] = tracer.metrics(wall)
        out["spans"] = len(tracer.spans)
        out["untraced_functions"] = missing
    return out


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes(seed, quick):
    """Per-layer probes that do not depend on the workload: field kernel, primality, CLI in-process."""
    rng = random.Random(seed)
    out = {}
    reps = 3 if quick else 5
    for name, (p, k) in (("fields.mul_ns.k1", (127, 1)), ("fields.mul_ns.k6", (2, 6))):
        field = fields.make_field(p, k)
        elems = list(field.nonzero_elements())
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(2_000)]

        def muls(pairs=pairs):
            for a, b in pairs:
                a * b
        out[name] = _median_time(muls, reps) / len(pairs) * 1e9
    sweep = [(f, z) for f in (fields.make_field(127), fields.make_field(2, 6)) for z in f.nonzero_elements()]

    def classes():
        for f, z in sweep:
            f.cube_class(z)
    out["fields.cube_class_us"] = _median_time(classes, reps) / len(sweep) * 1e6

    for tag, p in (("p1e6", 1_000_003), ("p1e12", wl.LARGE_P1)):
        out[f"ntheory.is_prime_ms.{tag}"] = _median_time(lambda p=p: ntheory.is_prime(p), reps) * 1e3

        def factor(n=p - 1):
            getattr(ntheory.prime_factors, "cache_clear", lambda: None)()
            ntheory.prime_factors(n)
        out[f"ntheory.prime_factors_ms.{tag}"] = _median_time(factor, reps) * 1e3

    calls = cli_ops(seed, quick)
    main_ms, payloads, stdout_bytes = [], [], 0
    for inv, call in calls:
        t0 = time.perf_counter()
        code, text, _ = call()
        main_ms.append((time.perf_counter() - t0) * 1e3)
        stdout_bytes += len(text.encode())
        if code == 0 and not inv.tsv:
            payloads.append(text)
    out["cli.main_ms"] = statistics.median(main_ms)
    out["cli.stdout_bytes"] = stdout_bytes
    largest = [json.loads(t) for t in sorted(payloads, key=len)[-3:]]
    out["cli.serialise_ms"] = sum(
        _median_time(lambda obj=obj: json.dumps(obj, sort_keys=True), reps) for obj in largest) * 1e3
    return out


def main(argv):
    mode, workload, seed, quick = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    if mode == "pass":
        result = run_pass(workload, seed, quick, argv[4] == "1")
    else:
        result = run_probes(seed, quick)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
