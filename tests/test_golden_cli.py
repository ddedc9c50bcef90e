"""Byte-identical CLI guard.

`golden_cli.json` holds a fixed list of invocations with the exit code and
stdout the CLI produced before the constants were computed in one place.  A
refactor must reproduce every record exactly; a record changes only with an
intended change of output.  The two inputs that crashed at recording time
(a count over the int-to-str digit limit and constants at p ~ 10^12) are
deliberately absent.  `verify` was recorded only as TSV while its JSON form
carried floating-point errors; since the character-sum identities became
exact equalities every check's observed value is exact, and the JSON record
was added with no other record changed.  The p ~ 10^12 constants call is answered
since the Jacobi sum is found by Cornacchia (tests/test_cli.py pins its
values); `test_refusal_unchanged` pins the exit code and error type of
requests refused by a size cap (the message may be reworded).
`test_long_window_unchanged` pins the SHA-256 of two 400-term series
windows, recorded before the series walk carried its power of q along.  The
F_13^4 window and the nine records with the theta-parity warning were
re-recorded when that warning's hint was reworded; their counts are
unchanged.  `verify`, `reproduce-example` and `reproduce-example
--theta-source paper` were re-recorded when the check records lost their
`tolerance` key, which read null on every check once the identities became
exact; dropping that key from the old records gives the new ones.
`constants` and `reproduce-example` no longer take `--theta-source`, which
neither read: the first printed the same bytes with it, the second only echoed
it.  So `constants --p 7 --k 2 --theta-source paper` (JSON and TSV) and
`reproduce-example --theta-source paper` were re-recorded as the validation
error "unrecognized arguments", and `reproduce-example` lost `theta_source`
from its query; no count or check changed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from diagcubic import cli

RECORDS = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_cli_output_unchanged(capsys, record):
    code = cli.main(list(record["argv"]))
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])


#: Requests refused before any heavy work: (argv, exit code, error type).
REFUSALS = [
    (["constants", "--p", "2000248000727"], 2, "resource"),  # p - 1 beyond the factoring cap
    (["series", "--p", "31", "--z", "c1", "--n-terms", "49999"], 2, "resource"),
]


@pytest.mark.parametrize("argv, code, kind", REFUSALS, ids=[" ".join(argv) for argv, _, _ in REFUSALS])
def test_refusal_unchanged(capsys, argv, code, kind):
    assert cli.main(list(argv)) == code
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == kind


#: Long series windows and the SHA-256 of their stdout.
LONG_WINDOWS = [
    (["series", "--p", "13", "--k", "4", "--z", "c1", "--n-terms", "400"],
     "e06ab7b34310f48c50912d1f61cde4ef84ed17771d684535172b91740d72aeee"),
    (["series", "--p", "7", "--k", "2", "--y", "c2", "--n-terms", "400", "--format", "tsv"],
     "b239f4e76336a3c1862851c755a64ab700f359d192c02387422c8e641b586449"),
]


@pytest.mark.parametrize("argv, digest", LONG_WINDOWS, ids=[" ".join(argv) for argv, _ in LONG_WINDOWS])
def test_long_window_unchanged(capsys, argv, digest):
    assert cli.main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
