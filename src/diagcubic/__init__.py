"""Exact zero counts of diagonal cubic forms over finite fields.

The library computes N_s(z), the number of solutions of
x_1^3 + ... + x_s^3 = z over F_q, and T_s(y), the number of zeros of
x_1^3 + ... + x_{s-1}^3 + y*x_s^3 = 0 for non-cubic y, in closed form from a
three-term integer recurrence whose seeds are exact field constants
(Eisenstein-integer Jacobi sums and the cubed Gauss sum).  A brute-force
convolution oracle and exact character sums cross-validate every formula.

The package root exports the library API the README documents.  Every other
name is imported from its submodule: the witnesses and checks from
``diagcubic.verify``, the brute-force counts from ``diagcubic.oracle``.
Importing the package loads neither of those two modules.  The records are
NamedTuples, and the package imports no ``dataclasses``.
"""

from .constants import CubicData, cubic_data
from .counting import (
    SeriesWindow,
    bijective_count,
    count_diagonal,
    count_twisted,
    diagonal_series,
    twisted_series,
)
from .eisenstein import EisensteinInt
from .errors import DomainError, IntegrityError, ResourceError
from .fields import CubicClass, FieldDescriptor, FieldElement, make_field

__all__ = [
    "CubicClass",
    "CubicData",
    "DomainError",
    "EisensteinInt",
    "FieldDescriptor",
    "FieldElement",
    "IntegrityError",
    "ResourceError",
    "SeriesWindow",
    "bijective_count",
    "count_diagonal",
    "count_twisted",
    "cubic_data",
    "diagonal_series",
    "make_field",
    "twisted_series",
]

__version__ = "0.1.0"
