"""What a cold start loads: the CLI imports only the code its commands run.

Each import check runs in a fresh interpreter, since this test process has
long since imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagcubic

ROOT = Path(__file__).resolve().parent.parent

#: Modules a plain CLI call must not load: the record machinery of
#: ``dataclasses`` (with ``inspect``), the verification suite and the oracle.
CLI_FORBIDDEN = ("dataclasses", "inspect", "diagcubic.verify", "diagcubic.oracle", "cmath")


def _loaded_after(statement: str, names) -> list[str]:
    """The modules among `names` in sys.modules after `statement` runs in a fresh interpreter."""
    probe = f"import json, sys; {statement}; print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))"
    path = [str(ROOT / "src")] + [os.environ["PYTHONPATH"]] * ("PYTHONPATH" in os.environ)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_skips_verify_oracle_and_dataclasses():
    assert _loaded_after("import diagcubic.cli", CLI_FORBIDDEN) == []


def test_cli_count_call_skips_verify_and_oracle():
    statement = "from diagcubic.cli import _respond; _respond(['count', '--p', '7', '--s', '3', '--z', 'c1'])"
    assert _loaded_after(statement, CLI_FORBIDDEN) == []


def test_polynomials_load_only_for_an_extension_field():
    prime_call = "from diagcubic.cli import _respond; _respond(['constants', '--p', '31'])"
    assert _loaded_after(prime_call, ("diagcubic.polynomials",)) == []
    extension = "from diagcubic import make_field; make_field(7, 2)"
    assert _loaded_after(extension, ("diagcubic.polynomials",)) == ["diagcubic.polynomials"]


def test_verify_import_skips_dataclasses():
    assert _loaded_after("import diagcubic.verify", ("dataclasses", "inspect")) == []


def test_oracle_name_loads_the_oracle_on_first_use():
    assert _loaded_after("import diagcubic", ("diagcubic.oracle",)) == []
    assert _loaded_after("from diagcubic import cube_histogram", ("diagcubic.oracle",)) == ["diagcubic.oracle"]


@pytest.mark.parametrize("name", diagcubic.__all__)
def test_every_public_name_resolves(name):
    assert getattr(diagcubic, name) is not None
    assert name in dir(diagcubic)


def test_oracle_names_are_the_oracle_objects():
    from diagcubic import oracle

    assert diagcubic.cube_histogram is oracle.cube_histogram
    assert diagcubic.CubeHistogram is oracle.CubeHistogram


def test_star_import():
    namespace = {}
    exec("from diagcubic import *", namespace)
    assert set(diagcubic.__all__) <= set(namespace)
    assert namespace["brute_twisted"] is diagcubic.brute_twisted


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"module 'diagcubic' has no attribute 'no_such_name'"):
        diagcubic.no_such_name  # noqa: B018
    assert not hasattr(diagcubic, "no_such_name")
    with pytest.raises(ImportError):
        exec("from diagcubic import no_such_name", {})
