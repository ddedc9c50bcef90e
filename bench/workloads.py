"""Workload definitions and correctness gates for the diagcubic benchmark.

Nothing here imports diagcubic at module level: the parent process (run.py)
uses the cli-mix invocation list and its gate, while the in-process workloads
are built inside the worker after the package is imported.  Every gate checks
outputs against facts the benchmark derives itself (identities, its own
brute force, values pinned from the README) rather than re-running the
package's own checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import isqrt, log10

WORKLOADS = ("constants-ladder", "counts-deep", "verify-suite", "cli-mix")

# -- constants-ladder --------------------------------------------------------

#: (p, k) per field.  q = 1 (mod 3) fields also get cubic_data.
LADDER_FIELDS = (
    (1009, 1), (10009, 1), (100003, 1), (1000003, 1),   # p = 1 (mod 3) near 10^3..10^6
    (7, 2), (13, 4), (7, 6), (19, 3), (97, 2),           # extension fields
    (5, 4), (11, 2), (17, 2), (2, 10),                   # p = 2 (mod 3) squares
    (5, 1), (2, 9), (11, 3),                             # q = 2 (mod 3): make_field only
)
LADDER_FIELDS_QUICK = ((1009, 1), (7, 2), (5, 4), (5, 1))

# -- counts-deep -------------------------------------------------------------

COUNT_FIELDS = ((7, 1), (31, 1), (7, 2), (2, 6), (13, 4))
COUNT_S = (10, 1_000, 10_000, 20_000)
SERIES_TERMS = 2_000
COUNT_FIELDS_QUICK = ((7, 1), (7, 2))
COUNT_S_QUICK = (10, 100)
SERIES_TERMS_QUICK = 50

#: s at which the benchmark's own brute-force convolution checks prime fields.
BRUTE_S = 10


S_BUCKETS = {"s10": 10, "s1e3": 1_000, "s1e4": 10_000, "s2e4": 20_000}


def s_bucket(s: int) -> str:
    """Name of the COUNT_S value nearest to s on a log scale."""
    return min(S_BUCKETS, key=lambda name: abs(log10(max(s, 1) / S_BUCKETS[name])))


# -- independent arithmetic ----------------------------------------------------


def eisenstein_norm(text: str) -> int:
    """Norm a^2 - ab + b^2 of an Eisenstein integer printed as 'a+b*w'."""
    body = text[:-2]  # drop the trailing '*w'
    cut = max(body.rfind("+"), body.rfind("-"))
    a, b = int(body[:cut]), int(body[cut:])
    return a * a - a * b + b * b


def cd_problems(q: int, c: int, d: int) -> list[str]:
    out = []
    if 4 * q != c * c + 27 * d * d:
        out.append(f"4q != c^2 + 27d^2 for q={q}, c={c}, d={d}")
    if c % 3 != 1:
        out.append(f"c={c} not 1 mod 3 for q={q}")
    if d < 0:
        out.append(f"d={d} negative for q={q}")
    return out


def prime_divisors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def is_primitive_root(g: int, p: int) -> bool:
    return g % p != 0 and all(pow(g, (p - 1) // ell, p) != 1 for ell in prime_divisors(p - 1))


def brute_distributions(p: int, s_max: int) -> list[list[int]]:
    """dist[s-1][v] = #{x in F_p^s : x_1^3 + ... + x_s^3 = v} for s = 1..s_max."""
    hist = [0] * p
    for x in range(p):
        hist[x * x * x % p] += 1
    support = [(w, h) for w, h in enumerate(hist) if h]
    dists = [hist]
    for _ in range(s_max - 1):
        prev, nxt = dists[-1], [0] * p
        for v, dv in enumerate(prev):
            if dv:
                for w, h in support:
                    nxt[(v + w) % p] += dv * h
        dists.append(nxt)
    return dists


# -- cli-mix -------------------------------------------------------------------

#: Values pinned from the README.
PINNED = {
    "f7_s2_zero": 19,
    "f31_t3_g": 1171,
    "f31_n3_zero": 1081,
    "f7_series": (1, 19, 55, 595, 2611),
}

LARGE_P1 = 1_000_000_000_039  # prime, 1 (mod 3): constants need the O(p) Jacobi sum
LARGE_P2 = 1_000_000_000_061  # prime, 2 (mod 3): pays primality and factoring only


@dataclass
class Invocation:
    """One CLI call and its declared outcome."""

    argv: list[str]
    exits: tuple[int, ...] = (0,)
    errors: tuple[str, ...] = ()  # allowed error types when the exit code is nonzero
    tsv: bool = False
    check: object = None  # callable(result) -> list of problems, on exit 0
    known_defect: str = ""  # exception name of a reproduced defect

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _value_is(expected: int):
    return lambda r: [] if r["value"] == expected else [f"value {r['value']} != {expected}"]


def _constants_ok(r: dict) -> list[str]:
    out = cd_problems(r["q"], r["c"], r["d"])
    if eisenstein_norm(r["gauss_cubed_over_q"]) != r["q"]:
        out.append(f"norm of {r['gauss_cubed_over_q']} != q={r['q']}")
    return out


def _series_prefix(p: int, target: int, n_check: int):
    def check(r):
        dists = brute_distributions(p, n_check)
        want = [dists[s][target] for s in range(n_check)]
        got = r["coefficients"][:n_check]
        return [] if got == want else [f"series prefix {got} != brute force {want}"]
    return check


def _tsv_pinned(expected):
    return lambda rows: [] if [v for _, v in rows] == list(expected) else [f"rows {rows} != {expected}"]


def _tsv_start(start: int, n: int):
    def check(rows):
        keys = [k for k, _ in rows]
        return [] if keys == list(range(start, start + n)) else ["bad TSV index column"]
    return check


def _magnitude(q: int, s: int):
    # N_s = q^(s-1) + u_s with |u_s| of order q^(s/2): far below q^(s-1) / 10^6
    return lambda r: [] if abs(r["value"] - q ** (s - 1)) * 10 ** 6 < q ** (s - 1) else ["count far from q^(s-1)"]


def cli_mix(seed: int, quick: bool = False) -> list[Invocation]:
    """The distinct cli-mix invocations; the seed picks the concrete elements."""
    rng = random.Random(seed)
    z31 = rng.randrange(1, 31)
    z13 = rng.randrange(1, 13)
    z5 = rng.randrange(0, 5)
    z8 = [rng.randrange(2) for _ in range(3)]
    d31 = brute_distributions(31, 5)
    d13 = brute_distributions(13, 4)
    s = str
    invs = [
        Invocation(["constants", "--p", "31"], check=_constants_ok),
        Invocation(["count", "--p", "7", "--s", "2", "--z", "zero"], check=_value_is(PINNED["f7_s2_zero"])),
        Invocation(["count", "--p", "31", "--s", "3", "--y", "3"], check=_value_is(PINNED["f31_t3_g"])),
        Invocation(["count", "--p", "31", "--s", "3", "--z", "zero"], check=_value_is(PINNED["f31_n3_zero"])),
        Invocation(["series", "--p", "7", "--z", "zero", "--n-terms", "5", "--format", "tsv"], tsv=True,
                   check=_tsv_pinned(PINNED["f7_series"])),
        Invocation(["count", "--p", "31", "--s", "3000", "--z", "c1"], exits=(0, 2), errors=("resource",),
                   check=_magnitude(31, 3000), known_defect="ValueError"),
        Invocation(["constants", "--p", s(LARGE_P1)], exits=(0, 2), errors=("resource",),
                   check=_constants_ok, known_defect="MemoryError"),
    ]
    if quick:
        return invs
    invs += [
        Invocation(["constants", "--p", "7", "--k", "2"], check=_constants_ok),
        Invocation(["constants", "--p", "2", "--k", "6", "--format", "tsv"], tsv=True),
        Invocation(["constants", "--p", "10009"], check=_constants_ok),
        Invocation(["count", "--p", "31", "--s", "5", "--z", s(z31)], check=_value_is(d31[4][z31])),
        Invocation(["count", "--p", "13", "--s", "4", "--z", s(z13), "--format", "tsv"], tsv=True,
                   check=lambda rows, want=d13[3][z13]: [] if dict(rows).get("value") == want else ["bad value"]),
        Invocation(["count", "--p", "7", "--k", "2", "--s", "6", "--z", "c1"]),
        Invocation(["count", "--p", "2", "--k", "6", "--s", "10", "--y", "c2"]),
        Invocation(["count", "--p", "31", "--s", "0", "--z", "zero"], check=_value_is(1)),
        Invocation(["count", "--p", "5", "--s", "4", "--z", s(z5)], check=_value_is(125)),
        Invocation(["count", "--p", "2", "--k", "3", "--s", "3", "--z", ",".join(map(s, z8))], check=_value_is(64)),
        Invocation(["count", "--p", s(LARGE_P2), "--s", "3", "--z", "zero"], check=_value_is(LARGE_P2 ** 2)),
        Invocation(["count", "--p", s(LARGE_P2), "--s", "5", "--z", "7"], check=_value_is(LARGE_P2 ** 4)),
        Invocation(["series", "--p", "31", "--z", "c1", "--n-terms", "300"], check=_series_prefix(31, 3, 4)),
        Invocation(["series", "--p", "13", "--z", "c0", "--n-terms", "500"], check=_series_prefix(13, 1, 4)),
        Invocation(["series", "--p", "7", "--k", "2", "--y", "c2", "--n-terms", "200", "--format", "tsv"],
                   tsv=True, check=_tsv_start(2, 200)),
        Invocation(["series", "--p", "97", "--k", "2", "--z", "zero", "--n-terms", "500"]),
        Invocation(["reproduce-example"], check=lambda r: [] if r["status"] == "PASS" else ["example FAIL"]),
        Invocation(["count", "--p", "7", "--k", "2", "--s", "3", "--y", "c1", "--theta-source", "paper"],
                   exits=(3,), errors=("integrity",)),
        Invocation(["constants", "--p", "32"], exits=(2,), errors=("validation",)),
        Invocation(["constants", "--p", s(LARGE_P2)], exits=(2,), errors=("validation",)),
        Invocation(["count", "--p", "31", "--s", "3", "--z", "1", "--y", "3"], exits=(2,), errors=("validation",)),
        Invocation(["series", "--p", "5", "--z", "zero"], exits=(2,), errors=("validation",)),
    ]
    return invs


def round_order(invs: list[Invocation], seed: int, round_index: int) -> list[Invocation]:
    order = list(invs)
    random.Random(f"{seed}/{round_index}").shuffle(order)
    return order


def _parse_tsv(text: str) -> list[tuple]:
    rows = []
    for line in text.rstrip("\n").split("\n"):
        key, sep, value = line.partition("\t")
        if not sep or "\t" in value:
            raise ValueError(f"bad TSV line {line!r}")
        key = int(key) if key.lstrip("-").isdigit() else key
        value = int(value) if value.lstrip("-").isdigit() else value
        rows.append((key, value))
    return rows


def judge_invocation(inv: Invocation, code: int | None, out: str, err: str) -> tuple[str, str]:
    """('ok' | 'known' | 'fail', reason) for one finished CLI call.

    'known' is a failure that matches the recorded signature of a reproduced
    defect; it still counts as failed.  code None means the call timed out.
    """
    if code is None:
        verdict = "timeout"
    elif "Traceback (most recent call last)" in err:
        verdict = "traceback: " + err.strip().splitlines()[-1][:200]
    elif code not in inv.exits:
        verdict = f"exit {code}, declared {inv.exits}"
    else:
        try:
            verdict = "; ".join(_content_problems(inv, code, out))
        except (ValueError, KeyError, TypeError) as exc:
            verdict = f"malformed output: {exc}"
        if not verdict:
            return "ok", ""
    if inv.known_defect and code == 1 and inv.known_defect in err:
        return "known", verdict
    return "fail", verdict


def _content_problems(inv: Invocation, code: int, out: str) -> list[str]:
    if code == 0 and inv.tsv:
        rows = _parse_tsv(out)
        return inv.check(rows) if inv.check else []
    if out.count("\n") != 1 or not out.endswith("\n"):
        return ["stdout is not exactly one line"]
    payload = json.loads(out)
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    if code != 0:
        kind = payload["error"]["type"]
        return [] if kind in inv.errors else [f"error type {kind!r}, declared {inv.errors}"]
    if set(payload) != {"query", "result", "warnings"}:
        return [f"payload keys {sorted(payload)}"]
    return inv.check(payload["result"]) if inv.check else []


def cd_search_loops(q: int) -> int:
    """floor(sqrt(4q/27)) + 1: the loop count of the (c, d) search."""
    return isqrt(4 * q // 27) + 1
