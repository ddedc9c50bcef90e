"""Finite fields F_q (q = p^k) at desk scale, with cubic-class structure.

Elements are coefficient vectors of length k in the power basis of a monic
irreducible modulus, little-endian (constant term first), entries in [0, p).
The prime field is the degenerate case k = 1 with modulus t.  Products and
powers mod the modulus, Ben-Or's too, run on :func:`_mul_mod` and :func:`_pow_mod`.

Construction is canonical and reproducible: the default modulus is the
smallest monic irreducible polynomial of degree k, and the default generator
g of the multiplicative group is the smallest element of order q - 1, both
under the ordering of coefficient vectors as base-p integers.  Either can be
overridden explicitly; the cubic class labels C1/C2 (and every sign derived
from them) are relative to the chosen g.

The norm N(x) to F_p is the resultant of the modulus and x, with no field
power.  As x ** ((q-1)/l) = N(x) ** ((p-1)/l) for every l | p - 1, the
generator search and, for p = 1 (mod 3), the cubic classes read those
powers off the norm, mod p.

Irreducibility is decided by Ben-Or's test (:mod:`diagcubic.polynomials`),
and each field tests its modulus once: the canonical one in the candidate
scan of :func:`find_irreducible`, a given one in the constructor.  The
tests of one field may cost at most ``polynomials.MAX_IRREDUCIBILITY_COST``;
beyond it construction is refused with a ResourceError.  The scan is charged
what each candidate's test used, and most candidates fail early.

Textual form used by the CLI: ``p^k/modulus-coeffs/g-coeffs`` with
comma-separated little-endian coefficient lists, e.g. ``7^2/1,0,1/2,1``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Sequence

from .errors import DomainError, IntegrityError, ResourceError
from .ntheory import is_prime, prime_factors


class CubicClass(Enum):
    """Cubic class of a field element when q = 1 (mod 3).

    ZERO is the zero element; Ci collects the z whose index with respect to
    the field's generator is i (mod 3).  C0 is the nonzero cubes.
    """

    ZERO = "zero"
    C0 = "c0"
    C1 = "c1"
    C2 = "c2"

    def __str__(self) -> str:
        return self.value


NONZERO_CLASSES = (CubicClass.C0, CubicClass.C1, CubicClass.C2)
NONCUBIC_CLASSES = (CubicClass.C1, CubicClass.C2)

#: Largest number of candidates the generator search may test.  Generators
#: make up phi(q - 1)/(q - 1) of the units, so the search ends after a few.
_MAX_GENERATOR_CANDIDATES = 10**4


# ---------------------------------------------------------------------------
# the product and the power mod f


def _mul_mod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> tuple[int, ...]:
    """a * b mod f over F_p, for a, b of length k = deg f, f monic; put a sparse factor first."""
    k = len(f) - 1
    prod = [0] * (2 * k - 1)
    top = k - 1  # prod has no nonzero term above x^top
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
            top = i + k - 1
    for i in range(top, k - 1, -1):  # subtract c * x^(i - k) * f, which clears x^i
        c = prod[i] % p
        if c:
            for j, fj in enumerate(f, i - k):
                prod[j] -= c * fj
    return tuple([c % p for c in prod[:k]])


def _pow_mod(base: tuple[int, ...], e: int, f: Sequence[int], p: int) -> tuple[int, ...]:
    """base^e mod f over F_p for e >= 0 and f monic of degree k >= 2, left to right:
    e.bit_length() - 1 squarings and a product by base for each further 1 bit."""
    result = base if e else (1,) + (0,) * (len(f) - 2)  # base^0 is one
    for bit in bin(e)[3:]:
        result = _mul_mod(result, result, f, p)
        if bit == "1":
            result = _mul_mod(base, result, f, p)  # base first: times x is one row
    return result


# ---------------------------------------------------------------------------
# the canonical modulus


def _monic_polys(p: int, degree: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """Monic degree-d polynomials in base-p order of their lower coefficients,
    from the start-th on."""
    for n in range(start, p ** degree):
        coeffs = []
        m = n
        for _ in range(degree):
            coeffs.append(m % p)
            m //= p
        yield tuple(coeffs) + (1,)


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree k >= 2 over F_p.

    "Smallest" orders the non-leading coefficient vectors (a0, ..., a_{k-1})
    as base-p integers with the constant term least significant.  Each
    candidate gets one Ben-Or test, charged the cost it used
    (:func:`polynomials.ben_or`) up to that of a full test,
    ``polynomials.irreducibility_cost(p, k)``.  The scan refuses with a
    ResourceError before a candidate whose full test would take the charges
    over ``polynomials.MAX_IRREDUCIBILITY_COST`` (at once if a single test
    would).

    For p > 2 the first p candidates, the binomials t^k + a0, are skipped
    untested when none of them can be irreducible (Lidl-Niederreiter, Thm
    3.75): when a prime r | k does not divide p - 1, or when 4 | k and
    p != 1 (mod 4).
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k < 2:
        raise DomainError("degree must be at least 2; the prime field needs no modulus")
    from . import polynomials  # on first use: a prime field tests no modulus

    cap = polynomials.MAX_IRREDUCIBILITY_COST
    full = polynomials.irreducibility_cost(p, k)  # before _monic_polys forms p^k
    no_binomial = p > 2 and (any((p - 1) % r for r in prime_factors(k)) or (k % 4 == 0 and p % 4 != 1))
    start = p if no_binomial else 0
    spent = 0
    for tested, poly in enumerate(_monic_polys(p, k, start)):
        if spent + full > cap:
            skipped = f" after the {p} binomials, skipped as none is irreducible" if start else ""
            raise ResourceError(
                f"no irreducible polynomial of degree {k} over F_{p} among the first {tested} "
                f"candidates{skipped}, charged {spent}: one more test of cost {full} would pass the cap of {cap}"
            )
        irreducible, cost = polynomials.ben_or(poly, p)
        if irreducible:
            return poly
        spent += min(cost, full)
    raise IntegrityError(f"no irreducible polynomial of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# field elements


class FieldElement:
    """An element of a FieldDescriptor's field; immutable value semantics."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FieldDescriptor", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check_same_field(self, other: "FieldElement") -> None:
        if self.field._sig != other.field._sig:
            raise DomainError("elements of different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_same_field(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_same_field(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_same_field(other)
        return FieldElement(self.field, self.field._mul_coeffs(self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            return NotImplemented
        field = self.field
        if self.is_zero():
            if e > 0:
                return self
            if e == 0:
                return field.one
            raise DomainError("inverse of zero")
        # the base is a unit, so any integer exponent reduces mod q - 1
        e %= field.q - 1
        if field.k == 1:
            return FieldElement(field, (pow(self.coeffs[0], e, field.p),))
        return FieldElement(field, _pow_mod(self.coeffs, e, field.modulus, field.p))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DomainError("inverse of zero")
        return self ** (self.field.q - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def norm(self) -> int:
        """Norm to the prime field: the product of all k conjugates, as an
        integer in [0, p).  Equals x ** ((q-1)/(p-1)) for every x, but takes
        no field power: for k >= 2 it is the resultant Res(f, x) of the
        modulus f and x, an O(k^2) Euclid mod p."""
        field = self.field
        if field.k == 1:
            return self.coeffs[0]
        from .polynomials import _resultant  # loaded by every extension field

        return _resultant(field.modulus, self.coeffs, field.p)

    def trace(self) -> int:
        """Trace to the prime field: the sum of all k conjugates, in [0, p)."""
        field = self.field
        acc = self
        frob = self
        for _ in range(field.k - 1):
            frob = frob ** field.p
            acc = acc + frob
        if any(c != 0 for c in acc.coeffs[1:]):
            raise IntegrityError(f"trace landed outside the prime subfield: {acc}")
        return acc.coeffs[0]

    def __int__(self) -> int:
        """Base-p integer encoding of the coefficient vector."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field._sig == other.field._sig and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field._sig, self.coeffs))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement({self} in F_{self.field.q})"


# ---------------------------------------------------------------------------
# field descriptors


def _field_order(p: int, k: int, modulus: tuple[int, ...] | None) -> int:
    """q = p^k after the checks of :func:`make_field` that need no search, in its
    order: p prime, k >= 1, a given modulus's shape, then for k >= 2 the cost cap
    of one irreducibility test, so q is formed only for a bounded k."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k < 1:
        raise DomainError("extension degree must be positive")
    if modulus is not None:
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise DomainError(f"modulus must be monic of degree {k}")
        if any(not (0 <= c < p) for c in modulus):
            raise DomainError(f"modulus coefficients must lie in [0, {p})")
        if k == 1 and modulus != (0, 1):
            raise DomainError("the prime field uses the trivial modulus t")
    if k > 1:
        from . import polynomials
        polynomials.irreducibility_cost(p, k)  # refuses a test beyond the cap
    return p ** k


class FieldDescriptor:
    """A concrete model of F_{p^k}: prime, degree, modulus, generator.

    Immutable after construction; every operation is a pure function of its
    inputs, so descriptors and elements are safe to share across threads.
    Use :func:`make_field` rather than calling this constructor directly.
    """

    #: _cube_roots: the base-p codes of 1, h and h^2 for h = g ** ((q-1)/3) when q = 1 (mod 3)
    __slots__ = ("p", "k", "q", "modulus", "g", "_sig", "_cube_roots")

    def __init__(
        self, p: int, k: int, modulus: tuple[int, ...] | None, generator: tuple[int, ...] | None
    ):
        self.q = _field_order(p, k, modulus)
        self.p = p
        self.k = k

        if modulus is None:
            # the canonical modulus, proved irreducible by the scan, so not tested again
            modulus = (0, 1) if k == 1 else find_irreducible(p, k)
        elif k > 1:
            from . import polynomials

            if not polynomials.ben_or(modulus, p)[0]:
                raise DomainError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = tuple(modulus)
        self._sig = (p, k, self.modulus)

        if generator is None:
            g = find_generator(self)
        elif any(not (0 <= c < p) for c in generator):
            raise DomainError(f"generator coefficients must lie in [0, {p})")
        else:
            g = self.element(generator)
            if not self._has_full_order(g):
                raise DomainError(f"{g} does not generate the multiplicative group of F_{self.q}")
        self.g = g

        if self.q % 3 != 1:
            self._cube_roots = None
        elif p % 3 == 1:  # h = N(g) ** ((p-1)/3) lies in F_p
            t = pow(g.norm(), (p - 1) // 3, p)
            self._cube_roots = (1, t, t * t % p)
        else:
            h = g ** ((self.q - 1) // 3)
            self._cube_roots = (1, int(h), int(h * h))

    # -- element construction -------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.k)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def element(self, coeffs: Sequence[int]) -> FieldElement:
        """Element from a little-endian coefficient sequence of length k."""
        if len(coeffs) != self.k:
            raise DomainError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, tuple(c % self.p for c in coeffs))

    def element_from_int(self, n: int) -> FieldElement:
        """Element whose coefficient vector is the base-p expansion of n."""
        if not (0 <= n < self.q):
            raise DomainError(f"element code {n} outside [0, {self.q})")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in base-p integer order."""
        for n in range(self.q):
            yield self.element_from_int(n)

    def nonzero_elements(self) -> Iterator[FieldElement]:
        for n in range(1, self.q):
            yield self.element_from_int(n)

    # -- arithmetic kernel ----------------------------------------------------

    def _mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if self.k == 1:
            return (a[0] * b[0] % self.p,)
        return _mul_mod(a, b, self.modulus, self.p)

    def _has_full_order(self, x: FieldElement) -> bool:
        """Whether x has order q - 1, tested on the norm first (see :func:`find_generator`)."""
        if x.is_zero():
            return False
        p, n = self.p, self.q - 1
        norm = x.norm()
        rest, big = [], 1
        for ell in prime_factors(n):
            if (p - 1) % ell:
                rest.append(ell)
                big *= ell
            elif pow(norm, (p - 1) // ell, p) == 1:
                return False
        if not rest:
            return True
        y = x ** (n // big)
        one = self.one
        return y != one and all(y ** (big // ell) != one for ell in rest)

    # -- cubic structure --------------------------------------------------------

    def cube_class(self, z: FieldElement) -> CubicClass:
        """Cubic class of z relative to this field's generator.

        Computed without a discrete logarithm: z ** ((q-1)/3) is a cube root
        of unity and equals (g ** ((q-1)/3)) ** i exactly for the class index i.
        For p = 1 (mod 3) it is read as N(z) ** ((p-1)/3) mod p, with no
        field power.
        """
        if z.field._sig != self._sig:
            raise DomainError("elements of different fields")
        if self.q % 3 != 1:
            raise DomainError(f"q = {self.q} = {self.q % 3} (mod 3): every element is a cube, classes are undefined")
        if z.is_zero():
            return CubicClass.ZERO
        if self.p % 3 == 1:
            w = pow(z.norm(), (self.p - 1) // 3, self.p)
        else:
            w = int(z ** ((self.q - 1) // 3))
        if w in self._cube_roots:
            return NONZERO_CLASSES[self._cube_roots.index(w)]
        raise IntegrityError(f"{z} ** ((q-1)/3) is not a cube root of unity")

    def representative(self, cls: CubicClass) -> FieldElement:
        """Smallest element (base-p integer order) of the given cubic class."""
        if cls is CubicClass.ZERO:
            return self.zero
        for z in self.nonzero_elements():
            if self.cube_class(z) is cls:
                return z
        raise IntegrityError(f"no element of class {cls} in F_{self.q}")  # unreachable

    # -- identity and textual form ---------------------------------------------

    def to_string(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.k}/{mod}/{self.g}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        return self._sig == other._sig and self.g.coeffs == other.g.coeffs

    def __hash__(self) -> int:
        return hash((self._sig, self.g.coeffs))

    def __repr__(self) -> str:
        return f"FieldDescriptor({self.to_string()})"


def find_generator(field: FieldDescriptor) -> FieldElement:
    """Smallest element of multiplicative order q - 1, in base-p integer order.

    For k >= 2 the search starts at code p: the codes below p are the prime
    subfield, whose units have order dividing p - 1 < q - 1.  Verification is
    exact: a unit x has order q - 1 iff x ** ((q-1)/l) != 1 for every prime
    l dividing q - 1.  The primes l | p - 1 are tested first, on the norm
    (N(x) ** ((p-1)/l) mod p), and only a candidate whose norm generates
    F_p^* takes field powers: one to (q-1)/L, L the product of the other
    primes, then one per prime on the result (Shoup, *A Computational
    Introduction to Number Theory and Algebra*, on finding generators).  A
    search that tests more than ``_MAX_GENERATOR_CANDIDATES`` candidates
    raises ResourceError.
    """
    start = 1 if field.k == 1 else field.p
    stop = start + _MAX_GENERATOR_CANDIDATES
    for code in range(start, min(stop, field.q)):
        x = field.element_from_int(code)
        if field._has_full_order(x):
            return x
    if stop < field.q:
        raise ResourceError(
            f"no generator of F_{field.q} among the {_MAX_GENERATOR_CANDIDATES} candidates "
            f"from code {start}"
        )
    raise IntegrityError(f"no generator found in F_{field.q}")  # unreachable


def make_field(
    p: int,
    k: int = 1,
    modulus: Sequence[int] | None = None,
    generator: Sequence[int] | None = None,
) -> FieldDescriptor:
    """Construct F_{p^k} with canonical (or explicitly given) modulus and generator.

    Either way the modulus gets exactly one irreducibility test: the
    canonical one in the scan of :func:`find_irreducible`, a given one in
    the constructor.
    """
    return FieldDescriptor(
        p, k,
        tuple(modulus) if modulus is not None else None,
        tuple(generator) if generator is not None else None,
    )


def parse_element(field: FieldDescriptor, text: str) -> FieldElement:
    """Parse the comma-separated little-endian element syntax c0,c1,...,c{k-1}."""
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad element syntax {text!r}") from exc
    if len(coeffs) != field.k:
        raise DomainError(f"expected {field.k} coefficients for F_{field.q}, got {len(coeffs)}")
    if any(not (0 <= c < field.p) for c in coeffs):
        raise DomainError(f"element coefficients must lie in [0, {field.p})")
    return field.element(coeffs)

