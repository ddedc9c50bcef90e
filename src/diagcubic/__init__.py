"""Exact zero counts of diagonal cubic forms over finite fields.

The library computes N_s(z), the number of solutions of
x_1^3 + ... + x_s^3 = z over F_q, and T_s(y), the number of zeros of
x_1^3 + ... + x_{s-1}^3 + y*x_s^3 = 0 for non-cubic y, in closed form from a
three-term integer recurrence whose seeds are exact field constants
(Eisenstein-integer Jacobi sums and the cubed Gauss sum).  A brute-force
convolution oracle and numeric character sums cross-validate every formula.

Importing the package loads neither the oracle nor ``verify``: the oracle
names in ``__all__`` load it on first use.  The records are NamedTuples, and
the package imports no ``dataclasses``.
"""

from .constants import CubicData, cd_search, cubic_data, delta, theta_exact, theta_sign_rule
from .counting import (
    SeriesWindow,
    bijective_count,
    count_diagonal,
    count_twisted,
    diagonal_series,
    excess_at,
    excess_seeds,
    signed_d_mod4,
    twisted3_closed,
    twisted_series,
)
from .eisenstein import EisensteinInt, RPair, jacobi_sum_cubic, r_pair
from .errors import DomainError, IntegrityError, ResourceError
from .fields import (
    CubicClass,
    FieldDescriptor,
    FieldElement,
    find_generator,
    find_irreducible,
    make_field,
    parse_element,
    parse_field,
)

__all__ = [
    "CubeHistogram",
    "CubicClass",
    "CubicData",
    "DomainError",
    "EisensteinInt",
    "FieldDescriptor",
    "FieldElement",
    "IntegrityError",
    "RPair",
    "ResourceError",
    "SeriesWindow",
    "bijective_count",
    "brute_diagonal",
    "brute_diagonal_naive",
    "brute_twisted",
    "cd_search",
    "count_diagonal",
    "count_twisted",
    "cube_histogram",
    "cubic_data",
    "cubic_exp_sum_numeric",
    "delta",
    "diagonal_count_vector",
    "diagonal_series",
    "excess_at",
    "excess_seeds",
    "find_generator",
    "find_irreducible",
    "gauss_sum_numeric",
    "jacobi_sum_cubic",
    "jacobi_sum_numeric",
    "make_field",
    "orthogonality_check",
    "parse_element",
    "parse_field",
    "r_pair",
    "signed_d_mod4",
    "theta_exact",
    "theta_sign_rule",
    "twisted3_closed",
    "twisted_series",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: only names missing from the module get here, so a name in
    # __all__ is an oracle name, and the oracle loads on its first use
    if name in __all__:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
