"""The twisted counts have one route: T_s(y) = N_{s-1}(0) + (q-1) N_{s-1}(y).

`count_twisted` and `twisted_series` both start the recurrence from the seeds
v_i = w_i + (q-1) u_i(y); these tests compare both with the two diagonal
counts, and pin that theta (through `delta`) enters `counting` in one place.
"""

import ast
from pathlib import Path

import pytest

from diagcubic import CubicClass, count_diagonal, count_twisted, counting, cubic_data, make_field, twisted_series
from diagcubic.fields import NONCUBIC_CLASSES

#: id -> (p, k, generator); F_49 under both cosets of generators, which swap
#: the classes C1 and C2 and flip theta
FIELDS = {
    "4": (2, 2, None),
    "7": (7, 1, None),
    "31": (31, 1, None),
    "49/g=2,1": (7, 2, (2, 1)),
    "49/g=3,1": (7, 2, (3, 1)),
    "64": (2, 6, None),
    "13^4": (13, 4, None),
    "10009": (10009, 1, None),
}

S_VALUES = (*range(2, 41), 1000, 20000)

#: A window of this many terms runs T_2 .. T_1000.
WINDOW = 999


@pytest.fixture(scope="module", params=sorted(FIELDS), ids=str)
def data(request):
    p, k, generator = FIELDS[request.param]
    return cubic_data(make_field(p, k, None, generator))


def _from_diagonal(data, s, cls):
    return count_diagonal(data, s - 1, CubicClass.ZERO) + (data.q - 1) * count_diagonal(data, s - 1, cls)


def test_count_twisted_equals_two_diagonal_counts(data):
    for cls in NONCUBIC_CLASSES:
        for s in S_VALUES:
            assert count_twisted(data, s, cls) == _from_diagonal(data, s, cls), (cls, s)


def test_twisted_series_equals_two_diagonal_counts(data):
    for cls in NONCUBIC_CLASSES:
        expected = tuple(_from_diagonal(data, s, cls) for s in range(2, WINDOW + 2))
        assert twisted_series(data, cls, WINDOW) == expected


def test_only_the_seeds_and_the_closed_form_read_theta():
    # theta enters the production counts in one expression, excess_seeds;
    # the closed-form witness twisted3_closed reads it in verify
    tree = ast.parse(Path(counting.__file__).read_text())
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "delta":
                    callers.add(getattr(top, "name", None))
    assert callers == {"excess_seeds"}
