"""Quick self-test of the benchmark itself (about half a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json and layer_map.json name the same metrics, that
every workload emits every named metric with its unit in quick mode (traced
and untraced), that the cli gate fails on a deliberately wrong pinned value,
that the benchmark imports nothing outside the standard library, and that it
refuses to run without the package sources.  Exit code 0 when all pass.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = []


def check(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--seed", "7", "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((BENCH / "layer_map.json").read_text())
    mapping.pop("about")
    layer_names = [m["name"] for m in spec["per_layer"]]
    check("BENCHMARK.json keys", set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
    check("workloads match run.py", [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS))
    check("layer_map covers per_layer", sorted(mapping) == sorted(layer_names),
          f"{set(mapping) ^ set(layer_names)}")
    e2e = {m["name"] for m in spec["end_to_end"]}
    targets = {t for moves in mapping.values() for t in moves if t != "none"}
    check("layer_map targets exist", all(w in wl.WORKLOADS and m in e2e for w, m in (t.split(":") for t in targets)))
    return spec


def test_metrics(spec: dict) -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            proc = run_bench(ROOT, "--workload", workload, "--trace", trace, "--quick")
            try:
                summary = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                check(f"{workload} trace {trace} runs", False, proc.stderr[-300:])
                continue
            got = {name: m["unit"] for name, m in summary["metrics"].items()}
            check(f"{workload} trace {trace} emits every metric with its unit", got == wanted,
                  f"{set(got.items()) ^ set(wanted.items())}")
            check(f"{workload} trace {trace} correct", proc.returncode == 0 and summary["correct"], proc.stdout[-300:])
            if workload == "cli-mix" and trace == "0":
                check("cli-mix counts the two known defects as failed", summary["failed"] == 2, str(summary["failed"]))


def test_gate_rejects_wrong_pin() -> None:
    env = {"PYTHONPATH": str(ROOT / "src")}
    argv = ["count", "--p", "31", "--s", "3", "--z", "zero"]
    proc = subprocess.run([sys.executable, "-m", "diagcubic", *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    right = wl.Invocation(argv, check=wl._value_is(wl.PINNED["f31_n3_zero"]))
    wrong = wl.Invocation(argv, check=wl._value_is(wl.PINNED["f31_n3_zero"] + 1))
    check("gate accepts the pinned value", wl.judge_invocation(right, proc.returncode, proc.stdout, proc.stderr)[0] == "ok")
    check("gate rejects a wrong pinned value",
          wl.judge_invocation(wrong, proc.returncode, proc.stdout, proc.stderr)[0] == "fail")
    check("gate rejects a traceback", wl.judge_invocation(right, 0, proc.stdout, "Traceback (most recent call last):\n")[0] == "fail")
    check("gate rejects two JSON lines", wl.judge_invocation(right, 0, proc.stdout * 2, "")[0] == "fail")


def test_stdlib_only() -> None:
    local = {path.stem for path in BENCH.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | local | {"diagcubic", "__future__"}
    foreign = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                foreign |= {a.name.split(".")[0] for a in node.names} - allowed
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                foreign |= {node.module.split(".")[0]} - allowed
    check("imports only the standard library", not foreign, str(foreign))


def test_refuses_without_sources() -> None:
    bare = BENCH / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "--workload", "cli-mix", "--trace", "0")
        check("refuses to run without src/", proc.returncode != 0 and '"metrics"' not in proc.stdout,
              f"exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = test_spec()
    test_stdlib_only()
    test_gate_rejects_wrong_pin()
    test_refuses_without_sources()
    test_metrics(spec)
    print(f"{sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
