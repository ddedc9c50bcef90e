"""Byte-identical CLI guard.

`golden_cli.json` holds a fixed list of invocations with the exit code and
stdout the CLI produced before the constants were computed in one place.  A
refactor must reproduce every record exactly; a record changes only with an
intended change of output.  The two inputs that crashed at recording time
(a count over the int-to-str digit limit and constants at p ~ 10^12) are
deliberately absent, and `verify` appears only as TSV because its JSON form
carries floating-point errors.
"""

import json
from pathlib import Path

import pytest

from diagcubic import cli

RECORDS = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_cli_output_unchanged(capsys, record):
    code = cli.main(list(record["argv"]))
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])

