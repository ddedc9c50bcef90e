"""What a cold start loads: the CLI imports only the code its commands run.

Each import check runs in a fresh interpreter, since this test process has
long since imported the whole package.
"""

import importlib
import inspect
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


def test_verify_loads_no_floating_point_math():
    # the character-sum identities are exact, so neither the import nor a run loads cmath
    assert _loaded_after("import diagcubic.verify", ("cmath",)) == []
    run = "import diagcubic.verify; assert diagcubic.verify.full_report()['ok']"
    assert _loaded_after(run, ("cmath",)) == []


#: name -> the module it is imported from: the package root for the README's
#: library API, the defining submodule for every other public name
PUBLIC_NAMES = {
    **dict.fromkeys(diagcubic.__all__, "diagcubic"),
    "CyclotomicInt": "diagcubic.oracle",
    "brute_diagonal_naive": "diagcubic.oracle",
    "brute_twisted": "diagcubic.oracle",
    "cd_search": "diagcubic.verify",
    "cube_histogram": "diagcubic.oracle",
    "cubic_exp_sum": "diagcubic.oracle",
    "delta": "diagcubic.constants",
    "diagonal_count_vector": "diagcubic.oracle",
    "excess_seeds": "diagcubic.counting",
    "find_generator": "diagcubic.fields",
    "find_irreducible": "diagcubic.fields",
    "gauss_sum": "diagcubic.oracle",
    "jacobi_sum_cubic": "diagcubic.eisenstein",
    "orthogonality_sum": "diagcubic.oracle",
    "parse_element": "diagcubic.fields",
    "r_pair": "diagcubic.eisenstein",
    "signed_d_mod4": "diagcubic.verify",
    "theta_sign_rule": "diagcubic.verify",
    "twisted3_closed": "diagcubic.verify",
}

#: The witnesses that run only in verify and the tests, and the deleted view
#: theta_exact: none of them is defined in a module a count loads.
WITNESS_NAMES = ("cd_search", "jacobi_sum_direct", "twisted3_closed", "signed_d_mod4", "theta_exact", "theta_sign_rule")


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_every_public_name_resolves(name):
    module = importlib.import_module(PUBLIC_NAMES[name])
    assert getattr(module, name) is not None
    assert name in dir(module)


def test_root_exports_the_readme_api():
    readme = (ROOT / "README.md").read_text()
    assert len(diagcubic.__all__) == 16
    assert [name for name in diagcubic.__all__ if f"`{name}`" not in readme] == []
    assert "__getattr__" not in vars(diagcubic) and "__dir__" not in vars(diagcubic)


@pytest.mark.parametrize("module", ["constants", "counting", "eisenstein"])
def test_witnesses_live_outside_the_count_path(module):
    namespace = vars(importlib.import_module(f"diagcubic.{module}"))
    assert [name for name in WITNESS_NAMES if name in namespace] == []


#: module -> the functions that read theta: each reads the exact one only
THETA_READERS = {
    "diagcubic.counting": ("count_diagonal", "count_twisted", "diagonal_series", "twisted_series", "excess_seeds"),
    "diagcubic.constants": ("delta",),
    "diagcubic.verify": ("twisted3_closed", "check_example_reproduction", "reproduce_example"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in THETA_READERS.items() for n in names])
def test_no_theta_source_parameter(module, name):
    function = getattr(importlib.import_module(module), name)
    assert "theta_source" not in inspect.signature(function).parameters


def test_second_theta_route_deleted():
    constants = importlib.import_module("diagcubic.constants")
    counting = vars(importlib.import_module("diagcubic.counting"))
    assert not hasattr(constants, "THETA_SOURCES") and not hasattr(constants.CubicData, "theta_from")
    assert "theta_from" not in vars(constants)
    assert "excess_at" not in counting and "_seeds" not in counting


def test_second_field_kernel_deleted():
    fields = importlib.import_module("diagcubic.fields")
    polynomials = importlib.import_module("diagcubic.polynomials")
    assert "_red_rows" not in fields.FieldDescriptor.__slots__
    assert polynomials._mul_mod is fields._mul_mod and polynomials._pow_mod is fields._pow_mod
    assert not hasattr(polynomials, "_x_pow_mod")


def test_cubic_character_deleted():
    # cube_class is the one route to an element's class, and fields reads no Eisenstein integers
    fields = importlib.import_module("diagcubic.fields")
    assert not hasattr(fields.FieldDescriptor, "cubic_character")
    assert [name for name in ("cubic_character", "_CHARACTER_VALUE", "EisensteinInt") if name in vars(fields)] == []


#: module -> names that only wrapped what their callers already held, and a dead constant
RETIRED_NAMES = {
    "diagcubic.oracle": ("CubeHistogram",),
    "diagcubic.eisenstein": ("RPair", "EI_ZERO"),
    "diagcubic.polynomials": ("is_irreducible",),
}


@pytest.mark.parametrize("module", sorted(RETIRED_NAMES))
def test_pass_through_names_deleted(module):
    namespace = vars(importlib.import_module(module))
    assert [name for name in RETIRED_NAMES[module] if name in namespace] == []


def test_fork_path_deleted():
    # full_report runs every check group in the caller: no child process, no thread bookkeeping
    namespace = vars(importlib.import_module("diagcubic.verify"))
    assert [name for name in ("_forked", "_run_groups", "os", "threading") if name in namespace] == []


def test_square_root_search_deleted():
    # Cornacchia's root of -27 comes from the cube root of unity jacobi_sum_cubic already holds
    namespace = vars(importlib.import_module("diagcubic.ntheory"))
    assert [name for name in ("sqrt_mod", "cornacchia4") if name in namespace] == []


def test_check_records_and_oracle_caps_carry_no_extras():
    oracle = importlib.import_module("diagcubic.oracle")
    verify = importlib.import_module("diagcubic.verify")
    assert not hasattr(verify.Check, "to_dict")
    for function in (oracle.diagonal_count_vector, oracle.brute_twisted):
        assert "max_s" not in inspect.signature(function).parameters


def test_star_import():
    namespace = {}
    exec("from diagcubic import *", namespace)
    assert set(diagcubic.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"module 'diagcubic' has no attribute 'no_such_name'"):
        diagcubic.no_such_name  # noqa: B018
    assert not hasattr(diagcubic, "no_such_name")
    with pytest.raises(ImportError):
        exec("from diagcubic import no_such_name", {})
