"""diagcubic benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]

Run from anywhere inside a checkout that holds src/diagcubic; the package is
imported from that src/ only.  Workloads (see BENCHMARK.json for the why):

  constants-ladder  make_field and cubic_data over a ladder of fields up to p ~ 10^6
  counts-deep       count_diagonal / count_twisted up to s = 2*10^4, plus 2,000-term series
  verify-suite      verify.full_report() with its default bounds
  cli-mix           `python -m diagcubic ...` as sequential subprocesses, one client, closed loop

--trace 0 reports the end-to-end metrics from untraced passes, each in a fresh
interpreter.  --trace 1 alternates untraced and traced passes, wraps the
package's public functions in spans (tracer.py), runs the per-layer probes
(worker.py) and reports the per-layer metrics.  Every result, with its
provenance, sample counts and correctness problems, is written to
bench/results/; the last stdout line is the JSON summary.  --quick shrinks
every workload for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable

WORKER_MEMORY = 2 << 30  # address-space cap per pass
CLI_MEMORY = 1 << 30  # address-space cap per CLI call
CLI_TIMEOUT = 30.0
RUN_LIMIT = 150.0  # seconds after which no new pass starts; the whole run must end within 180
SETUP_SAMPLES = 9  # fresh-interpreter imports behind setup_s and cli.import_ms
MIN_PASSES = 3
TAIL_BEYOND = 10  # samples wanted beyond the tail percentile
TAIL_PERCENTILE = 90

IMPORT_PROBE = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], memory: int, timeout: float) -> tuple[int | None, str, str, float]:
    """(exit code or None on timeout, stdout, stderr, seconds) of one capped child process."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=timeout, preexec_fn=cap)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, "", "", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class Run:
    """One benchmark run: its deadline, its problems and its op counts."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.deadline = self.started + args.seconds
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures that are not a reproduced known defect
        self.known = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def keep_going(self, done: int, minimum: int) -> bool:
        if self.elapsed() > RUN_LIMIT:
            return False
        return done < minimum or time.perf_counter() < self.deadline

    def timeout(self) -> float:
        return max(10.0, RUN_LIMIT + 20.0 - self.elapsed())

    def worker(self, mode: str, traced: bool = False) -> dict | None:
        a = self.args
        argv = [PYTHON, str(BENCH / "worker.py"), mode, a.workload, str(a.seed), str(int(a.quick))]
        if mode == "pass":
            argv.append(str(int(traced)))
        code, out, err, _ = run_child(argv, WORKER_MEMORY, self.timeout())
        if code != 0:
            tail = err.strip().splitlines()[-1:] if err.strip() else ["timeout" if code is None else "no output"]
            self.unexpected.append(f"worker {mode} exit {code}: {tail[0][:300]}")
            self.attempted += 1
            self.failed += 1
            return None
        result = json.loads(out.strip().splitlines()[-1])
        if mode == "pass":
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.unexpected += result["problems"]
        return result

    def import_seconds(self, module: str, n: int) -> list[float]:
        """Import time of `module` in n fresh interpreters, after one discarded warm-up."""
        times = []
        for i in range(n + 1):
            code, out, err, _ = run_child([PYTHON, "-c", IMPORT_PROBE.format(module)], CLI_MEMORY, CLI_TIMEOUT)
            if code != 0:
                raise SystemExit(f"cannot import {module} from {ROOT / 'src'}: {err.strip()[-300:]}")
            if i:
                times.append(float(out))
        return times


def quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cli_rounds(run: Run) -> tuple[dict, dict]:
    """Closed loop, one client: each round runs every distinct invocation once, in seed order."""
    invs = wl.cli_mix(run.args.seed, run.args.quick)
    minimum = 1 if run.args.quick else math.ceil((TAIL_BEYOND + 1) * 100 / (100 - TAIL_PERCENTILE) / len(invs))
    walls, samples = [], []
    while run.keep_going(len(walls), minimum):
        start = time.perf_counter()
        for inv in wl.round_order(invs, run.args.seed, len(walls)):
            samples.append((inv, *run_child([PYTHON, "-m", "diagcubic", *inv.argv], CLI_MEMORY, CLI_TIMEOUT)))
        walls.append(time.perf_counter() - start)
    for inv, code, out, err, _ in samples:  # the gate, outside the timed region
        verdict, reason = wl.judge_invocation(inv, code, out, err)
        run.attempted += 1
        if verdict != "ok":
            run.failed += 1
            (run.known if verdict == "known" else run.unexpected).append(f"{inv.label}: {reason}")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    op_ms = [dt * 1e3 for *_, dt in samples]
    return {"wall_s": walls, "op_ms": op_ms, "peak_rss_mb": [rss_mb]}, {
        "rounds": len(walls), "invocations_per_round": len(invs)}


def worker_passes(run: Run) -> tuple[dict, dict]:
    """Fresh-interpreter passes; each op's latency is its median over the passes.

    Every pass makes the same calls, so the op latencies form a few tight
    clusters; percentiles over per-op medians stay steady where a percentile
    of raw samples would sit on the extreme sample at a gap between clusters.
    """
    walls, per_op, rss = [], [], []
    while run.keep_going(len(walls), 1 if run.args.quick else MIN_PASSES):
        result = run.worker("pass")
        if result is None:
            break
        walls.append(result["wall_s"])
        per_op = per_op or [[] for _ in result["op_ms"]]
        for samples, ms in zip(per_op, result["op_ms"]):
            samples.append(ms)
        rss.append(result["rss_mb"])
    op_ms = [statistics.median(samples) for samples in per_op]
    return {"wall_s": walls, "op_ms": op_ms, "peak_rss_mb": rss}, {"passes": len(walls)}


def timed_run(run: Run) -> tuple[dict, dict]:
    module = "diagcubic.cli" if run.args.workload == "cli-mix" else "diagcubic"
    setup = run.import_seconds(module, 3 if run.args.quick else SETUP_SAMPLES)
    run.deadline = time.perf_counter() + run.args.seconds
    raw, detail = cli_rounds(run) if run.args.workload == "cli-mix" else worker_passes(run)
    if not raw["wall_s"]:
        raise SystemExit("no pass completed: " + "; ".join(run.unexpected[:3]))
    ops = raw["op_ms"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(raw["wall_s"]),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
        "op_p50_ms": quantile(ops, 50),
        "op_p90_ms": quantile(ops, TAIL_PERCENTILE),
    }
    p90 = values["op_p90_ms"]
    detail.update({
        "samples": {"setup_s": len(setup), "wall_s": len(raw["wall_s"]), "peak_rss_mb": len(raw["peak_rss_mb"]),
                    "op_p50_ms": len(ops), "op_p90_ms": len(ops)},
        "tails": {"op_p90_ms": {"percentile": TAIL_PERCENTILE, "samples": len(ops),
                                "samples_beyond": sum(1 for x in ops if x > p90)}},
        "raw": {"setup_s": setup, **raw},
    })
    return values, detail


def traced_run(run: Run) -> tuple[dict, dict]:
    plain, traced = [], []
    while run.keep_going(len(traced), 1):
        pair = run.worker("pass", traced=False), run.worker("pass", traced=True)
        if None in pair:
            break
        plain.append(pair[0])
        traced.append(pair[1])
    if not traced:
        raise SystemExit("no traced pass completed: " + "; ".join(run.unexpected[:3]))
    values = {key: statistics.median(t["layers"][key] for t in traced) for key in traced[0]["layers"]}
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    values["trace.wall_ms"] = traced_wall * 1e3
    values["trace.overhead_ms"] = (traced_wall - plain_wall) * 1e3

    probes = run.worker("probes") or {}
    values.update(probes)
    n = 3 if run.args.quick else SETUP_SAMPLES
    interp = []
    for _ in range(n):
        interp.append(run_child([PYTHON, "-c", "pass"], CLI_MEMORY, CLI_TIMEOUT)[3])
    values["cli.interpreter_ms"] = statistics.median(interp) * 1e3
    values["cli.import_ms"] = statistics.median(run.import_seconds("diagcubic.cli", n)) * 1e3
    detail = {
        "pairs": len(traced),
        "spans_per_traced_pass": traced[0]["spans"],
        "untraced_functions": traced[0]["untraced_functions"],
        "samples": {"layers": len(traced), "probes": 3 if run.args.quick else 5, "cli.interpreter_ms": n,
                    "cli.import_ms": n},
        "raw": {"untraced_wall_s": [p["wall_s"] for p in plain], "traced_wall_s": [t["wall_s"] for t in traced]},
    }
    return values, detail


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
        "loadavg_at_start": os.getloadavg(), "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets subprocess.run kill its child
    sys.set_int_max_str_digits(0)  # the cli gate parses counts of any size
    if not (ROOT / "src" / "diagcubic" / "__init__.py").is_file():
        print(f"no diagcubic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    info = provenance(args.seed)
    run = Run(args)
    values, detail = traced_run(run) if args.trace else timed_run(run)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not run.unexpected
    summary = {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "quick": args.quick,
        "provenance": info, "elapsed_s": run.elapsed(),
        "failed_ratio": run.failed / max(run.attempted, 1),
        "unexpected_failures": run.unexpected[:50], "known_defect_failures": sorted(set(run.known)),
        **detail, **summary,
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    samples = ", ".join(f"{k}={v}" for k, v in detail["samples"].items())
    print(f"{args.workload}: samples {samples}; failed {run.failed}/{run.attempted}; result file {path.relative_to(ROOT)}")
    for problem in run.unexpected[:5]:
        print(f"unexpected failure: {problem}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
