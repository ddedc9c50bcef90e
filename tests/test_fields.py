import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from diagcubic import (
    CubicClass,
    DomainError,
    ResourceError,
    make_field,
    verify,
)
from diagcubic import fields as fields_module
from diagcubic import polynomials
from diagcubic.fields import NONZERO_CLASSES, find_generator, find_irreducible, parse_element
from diagcubic.ntheory import prime_factors, primes_up_to


class TestFindIrreducible:
    def test_smallest_moduli(self):
        assert find_irreducible(2, 2) == (1, 1, 1)  # t^2 + t + 1
        assert find_irreducible(3, 2) == (1, 0, 1)  # t^2 + 1: -1 is a non-square mod 3
        assert find_irreducible(7, 2) == (1, 0, 1)  # -1 is a non-square mod 7

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            find_irreducible(4, 2)
        with pytest.raises(DomainError):
            find_irreducible(7, 1)

    @pytest.mark.parametrize("p,k", [(2, 3), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_result_has_no_small_factors(self, p, k):
        poly = find_irreducible(p, k)
        assert len(poly) == k + 1 and poly[-1] == 1
        # no roots in the prime field (degree-1 factor check)
        for r in range(p):
            value = sum(c * pow(r, i, p) for i, c in enumerate(poly)) % p
            assert value != 0


class TestFindGenerator:
    def test_known_generators(self):
        assert int(make_field(31).g) == 3  # 2 has order 5 only
        assert int(make_field(7).g) == 3
        assert int(make_field(13).g) == 2

    @pytest.mark.parametrize(
        "p,k",
        [(2, 2), (7, 1), (13, 1), (2, 4), (19, 1), (5, 2), (31, 1), (37, 1),
         (43, 1), (7, 2), (61, 1), (2, 6), (5, 1), (2, 3), (11, 1)],
    )
    def test_order_is_exactly_q_minus_1(self, p, k):
        field = make_field(p, k)
        g, n = field.g, field.q - 1
        assert g ** n == field.one
        for ell in prime_factors(n):
            assert g ** (n // ell) != field.one

    def test_find_generator_matches_canonical(self, f49):
        assert find_generator(f49) == f49.g

    def test_explicit_generator_is_verified(self):
        with pytest.raises(DomainError):
            make_field(7, generator=[2])  # order 3, not 6

    @pytest.mark.parametrize("p, k, generator", [(7, 1, [10]), (7, 1, [-4]), (7, 2, [10, 8]), (7, 2, [3, 8])])
    def test_explicit_generator_coefficients_in_range(self, p, k, generator):
        # each reduces mod 7 to a generator, but is refused as the modulus would be
        with pytest.raises(DomainError, match=r"generator coefficients must lie in \[0, 7\)"):
            make_field(p, k, generator=generator)


class TestArithmetic:
    def test_f4_reduction(self, f4):
        t = f4.element([0, 1])
        assert t * t == f4.element([1, 1])  # t^2 = t + 1

    def test_f7_inverse(self, f7):
        three = f7.element([3])
        assert three.inverse() == f7.element([5])
        assert three * three.inverse() == f7.one

    def test_f9_power(self, f9):
        x = f9.element([1, 1])
        assert x ** 4 == f9.element([2, 0])

    def test_pow_conventions(self, f49):
        x = f49.element([2, 1])
        big = 10 ** 30
        assert x ** big == x ** (big % (f49.q - 1))
        assert x ** -1 == x.inverse()
        assert f49.zero ** 0 == f49.one
        assert f49.zero ** 5 == f49.zero
        with pytest.raises(DomainError):
            f49.zero ** -1
        with pytest.raises(DomainError):
            f49.zero.inverse()

    def test_cross_field_operations_rejected(self, f7, f13):
        with pytest.raises(DomainError):
            f7.element([1]) + f13.element([1])

    @given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
    def test_field_axioms_f49(self, na, nb, nc):
        field = make_field(7, 2)
        a, b, c = (field.element_from_int(n) for n in (na, nb, nc))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if not a.is_zero():
            assert a * a.inverse() == field.one


def _reduction_rows_product(p, k, modulus):
    """The product of coefficient tuples that fields ran before
    fields._mul_mod, copied: the constructor's table of t^j mod modulus for
    j = k .. 2k-2, and the body of FieldDescriptor._mul_coeffs that read it."""
    rows = []
    row = tuple(-modulus[i] % p for i in range(k))
    for _ in range(k, 2 * k - 1):
        rows.append(row)
        shifted = (0,) + row[: k - 1]
        lead = row[k - 1]
        row = tuple((shifted[i] + lead * rows[0][i]) % p for i in range(k))
    red_rows = tuple(rows)

    def mul_coeffs(a, b):
        if k == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:k]
        for j in range(k, 2 * k - 1):
            c = prod[j] % p
            if c:
                row = red_rows[j - k]
                for i in range(k):
                    out[i] += c * row[i]
        return tuple(c % p for c in out)

    return mul_coeffs


def _x_pow_mod(e, f, p):
    """x^e mod f by the loop Ben-Or's test ran before fields._pow_mod,
    copied, with its squarings done by the reduction-rows product."""
    k = len(f) - 1
    mul = _reduction_rows_product(p, k, f)
    result = [0, 1] + [0] * (k - 2)
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":  # times x: shift up, then fold the x^k term back
            top = result[-1]
            result = [((result[i - 1] if i else 0) - top * f[i]) % p for i in range(k)]
    return tuple(result)


class TestKernelsAgainstReplacedRoutes:
    """fields._mul_mod and fields._pow_mod against the routes they replaced."""

    SMALL_EXTENSIONS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9) if p ** k <= 256]

    @pytest.mark.parametrize("p, k", SMALL_EXTENSIONS)
    def test_product_on_every_pair(self, p, k):
        field = make_field(p, k)
        reference = _reduction_rows_product(p, k, field.modulus)
        elements = [x.coeffs for x in field.elements()]
        for a in elements:
            for b in elements:
                assert fields_module._mul_mod(a, b, field.modulus, p) == reference(a, b), (a, b)

    @pytest.mark.parametrize("p, k", [(101, 6), (2, 12), (7, 12)])
    def test_product_on_random_pairs(self, p, k):
        field = make_field(p, k)
        reference = _reduction_rows_product(p, k, field.modulus)
        rng = random.Random(p * 100 + k)
        for _ in range(2000):
            a, b = (tuple(rng.randrange(p) for _ in range(k)) for _ in range(2))
            assert fields_module._mul_mod(a, b, field.modulus, p) == reference(a, b), (a, b)

    @pytest.mark.parametrize("p, k", [(2, 40), (13, 13), (7, 12)])
    def test_x_to_the_p_on_every_scanned_candidate(self, p, k):
        modulus = find_irreducible(p, k)
        x = (0, 1) + (0,) * (k - 2)
        tested = 0
        for f in _monic_polys(p, k):
            assert fields_module._pow_mod(x, p, f, p) == _x_pow_mod(p, f, p), f
            tested += 1
            if f == modulus:
                break
        assert tested == {(2, 40): 58, (13, 13): 158, (7, 12): 59}[p, k]


def _pow_by_squaring(x, e):
    """x ** e for a unit x by the square-and-multiply loop that prime fields
    ran before they used builtin pow, and extension fields before
    fields._pow_mod: the exponent reduced mod q - 1, then products of
    coefficient tuples by the reduction-rows product."""
    field = x.field
    mul = _reduction_rows_product(field.p, field.k, field.modulus)
    e %= field.q - 1
    result, base = field.one.coeffs, x.coeffs
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return fields_module.FieldElement(field, result)


class TestPrimeFieldPow:
    """Builtin pow on prime fields, and fields._pow_mod on extension fields,
    against the square-and-multiply loop."""

    #: q -> (p, k)
    FIELDS = {7: (7, 1), 31: (31, 1), 9973: (9973, 1), 49: (7, 2), 64: (2, 6), 28561: (13, 4)}

    @pytest.mark.parametrize("q, codes", [
        (7, range(1, 7)), (31, range(1, 31)), (9973, [*range(1, 9973, 97), 9971, 9972]),
        (49, range(1, 49)), (64, range(1, 64)), (28561, [*range(1, 28561, 97), 28559, 28560]),
    ])
    def test_units_match_the_loop(self, q, codes):
        field = make_field(*self.FIELDS[q])
        for code in codes:
            x = field.element_from_int(code)
            for e in (0, 1, -1, q - 2, q - 1, q, 10 ** 30 + 7, -10 ** 30):
                assert x ** e == _pow_by_squaring(x, e), (code, e)

    @pytest.mark.parametrize("p", [7, 31, 9973])
    def test_zero_base(self, p):
        field = make_field(p)
        q = field.q
        for e in (1, q - 2, q - 1, q, 10 ** 30 + 7):
            assert field.zero ** e == field.zero
        assert field.zero ** 0 == field.one
        for e in (-1, -10 ** 30):
            with pytest.raises(DomainError, match=r"^inverse of zero$"):
                field.zero ** e


class TestNormTrace:
    def test_prime_field_identity(self, f7):
        for z in f7.elements():
            assert z.norm() == z.coeffs[0]
            assert z.trace() == z.coeffs[0]

    def test_examples(self, f4, f9):
        assert f4.element([0, 1]).norm() == 1  # t * t^2 = t^3 = 1
        assert f4.element([0, 1]).trace() == 1  # t + t^2 = 1 in characteristic 2
        assert f9.element([1, 1]).norm() == 2

    def test_trace_of_zero(self, f49):
        assert f49.zero.trace() == 0

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (7, 2)])
    def test_norm_multiplicative_trace_additive(self, p, k):
        field = make_field(p, k)
        elems = list(field.elements())
        for a in elems:
            for b in elems:
                assert (a * b).norm() == a.norm() * b.norm() % p
                assert (a + b).trace() == (a.trace() + b.trace()) % p

    def test_norm_of_generator_generates_prime_units(self, f49):
        g_norm = f49.g.norm()
        seen = set()
        x = 1
        for _ in range(f49.p - 1):
            x = x * g_norm % f49.p
            seen.add(x)
        assert len(seen) == f49.p - 1


class TestCubicClass:
    def test_f7_classes(self, f7):
        assert f7.cube_class(f7.element([1])) is CubicClass.C0
        assert f7.cube_class(f7.element([2])) is CubicClass.C2  # 2 = 3^2
        assert f7.cube_class(f7.element([6])) is CubicClass.C0  # 6 = 3^3
        assert f7.cube_class(f7.zero) is CubicClass.ZERO

    def test_rejects_bijective_regime(self):
        f5 = make_field(5)
        with pytest.raises(DomainError):
            f5.cube_class(f5.element([2]))

    def test_rejects_an_element_of_another_field(self, f7, f13, f49):
        # a caller's domain error, not an internal one: F_7's 2 is not F_49's 2
        for field, foreign in ((f7, f13.element([2])), (f7, f49.g), (f49, f7.element([2]))):
            with pytest.raises(DomainError, match="^elements of different fields$"):
                field.cube_class(foreign)

    @pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (13, 1), (2, 4), (5, 2), (7, 2)])
    def test_class_sizes(self, p, k):
        field = make_field(p, k)
        sizes = {cls: 0 for cls in (CubicClass.C0, CubicClass.C1, CubicClass.C2)}
        for z in field.nonzero_elements():
            sizes[field.cube_class(z)] += 1
        assert set(sizes.values()) == {(field.q - 1) // 3}

    def test_coset_invariance(self, f13):
        for z in f13.nonzero_elements():
            cls = f13.cube_class(z)
            for w in f13.nonzero_elements():
                assert f13.cube_class(z * w ** 3) is cls

    def test_representative(self, f7):
        assert int(f7.representative(CubicClass.C0)) == 1
        assert int(f7.representative(CubicClass.C2)) == 2
        assert int(f7.representative(CubicClass.C1)) == 3
        assert f7.representative(CubicClass.ZERO) == f7.zero


class TestCubicCharacter:
    """The order-3 character chi(z) = w^i on class Ci, read through cube_class."""

    @pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (7, 2)])
    def test_indicator_identity(self, p, k):
        # 1 + chi(a) + chi(a)^2 counts the cube roots of a: 3 on nonzero cubes, 0 elsewhere
        field = make_field(p, k)
        roots = Counter(x ** 3 for x in field.nonzero_elements())
        for a in field.nonzero_elements():
            assert roots[a] == (3 if field.cube_class(a) is CubicClass.C0 else 0)

    def test_multiplicative(self, f13):
        # chi(ab) = chi(a) chi(b): class indices add mod 3
        index = {cls: i for i, cls in enumerate(NONZERO_CLASSES)}
        for a in f13.nonzero_elements():
            for b in f13.nonzero_elements():
                assert index[f13.cube_class(a * b)] == (index[f13.cube_class(a)] + index[f13.cube_class(b)]) % 3


class TestSerialization:
    def test_field_round_trip(self, f49):
        assert f49.to_string() == "7^2/1,0,1/2,1"
        assert make_field(7, 2, modulus=(1, 0, 1), generator=(2, 1)) == f49

    def test_element_round_trip(self, f49):
        for z in f49.elements():
            assert parse_element(f49, str(z)) == z

    def test_parse_errors(self, f49):
        with pytest.raises(DomainError):
            parse_element(f49, "1")  # wrong length
        with pytest.raises(DomainError):
            parse_element(f49, "1,x")
        with pytest.raises(DomainError):
            parse_element(f49, "1,9")  # coefficient out of range

    def test_element_int_encoding(self, f49):
        for n in range(f49.q):
            assert int(f49.element_from_int(n)) == n


class TestConstruction:
    def test_prime_field_is_degenerate_extension(self):
        f31 = make_field(31)
        assert f31.modulus == (0, 1)
        assert f31.k == 1 and f31.q == 31

    def test_modulus_validation(self):
        with pytest.raises(DomainError):
            make_field(7, 2, modulus=(5, 0, 1))  # t^2 + 5 = (t+3)(t+4) mod 7
        with pytest.raises(DomainError):
            make_field(7, 2, modulus=(1, 0, 2))  # not monic
        with pytest.raises(DomainError):
            make_field(7, 2, modulus=(1, 1))  # wrong degree
        with pytest.raises(DomainError):
            make_field(7, 1, modulus=(1, 1))  # prime field must use t

    def test_alternative_modulus_accepted(self):
        field = make_field(7, 2, modulus=(3, 1, 1))  # t^2 + t + 3, irreducible
        assert field.q == 49
        assert field.g ** 48 == field.one


class TestTrialDivisionCap:
    """The cap on the cost of irreducibility tests, about (k^2 + 64) *
    (k + log2 p) per Ben-Or test (named for the trial-division cap it
    replaced)."""

    @pytest.mark.parametrize("p, k", [(7, 6), (97, 2), (2, 10), (13, 4), (11, 3), (2, 9), (19, 3)])
    def test_fields_in_use_construct(self, p, k):
        field = make_field(p, k)
        assert field.q == p ** k and len(field.modulus) == k + 1

    def test_refuses_large_degree(self, monkeypatch):
        def no_test(poly, p):
            raise AssertionError("an irreducibility test ran")

        monkeypatch.setattr(polynomials, "ben_or", no_test)
        # (200^2 + 64) * (200 + 4) = 8,173,056: about twice the cap, refused before any test
        with pytest.raises(ResourceError, match="costs about 8173056 steps"):
            find_irreducible(13, 200)
        with pytest.raises(ResourceError):
            make_field(13, 200)
        with pytest.raises(ResourceError):
            make_field(13, 200, modulus=(2,) + (0,) * 199 + (1,))
        with pytest.raises(ResourceError):
            make_field(2, 10**9)

    def test_boundary(self, monkeypatch):
        # one test of degree 4 over F_13 costs (16 + 64) * (4 + 4) = 640; the
        # canonical t^4 + 2 is the third candidate, after t^4, charged nothing
        # (t divides it), and t^4 + 1, which has no root and fails at the
        # second step, charged a full test
        cost = polynomials.irreducibility_cost(13, 4)
        assert cost == 640
        assert polynomials.ben_or((0, 0, 0, 0, 1), 13) == (False, 0)
        assert polynomials.ben_or((1, 0, 0, 0, 1), 13) == (False, 960)  # 10 steps of 2 * 16 + 64
        monkeypatch.setattr(polynomials, "MAX_IRREDUCIBILITY_COST", 2 * cost)
        assert find_irreducible(13, 4) == make_field(13, 4).modulus == (2, 0, 0, 0, 1)
        monkeypatch.setattr(polynomials, "MAX_IRREDUCIBILITY_COST", 2 * cost - 1)
        with pytest.raises(ResourceError, match="among the first 2 candidates, charged 640"):
            find_irreducible(13, 4)
        monkeypatch.setattr(polynomials, "MAX_IRREDUCIBILITY_COST", cost)
        assert make_field(13, 4, modulus=(2, 0, 0, 0, 1)).q == 13 ** 4  # one test fits exactly
        monkeypatch.setattr(polynomials, "MAX_IRREDUCIBILITY_COST", cost - 1)
        with pytest.raises(ResourceError, match="costs about 640 steps, above the cap of 639"):
            make_field(13, 4, modulus=(2, 0, 0, 0, 1))
        with pytest.raises(ResourceError):
            find_irreducible(13, 4)

    def test_degree_forty_over_f2(self):
        # the canonical modulus is the 58th candidate, and 58 full tests would
        # pass the cap, but most candidates fail at the first step
        assert 58 * polynomials.irreducibility_cost(2, 40) > polynomials.MAX_IRREDUCIBILITY_COST
        field = make_field(2, 40)
        assert field.modulus == (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,)  # t^40 + t^5 + t^4 + t^3 + 1
        assert str(field.g) == "0,1" + ",0" * 38

    def test_charges_what_each_candidate_used(self, monkeypatch):
        charges = []
        original = polynomials.ben_or

        def recorded(poly, q):
            verdict = original(poly, q)
            charges.append(verdict[1])
            return verdict

        monkeypatch.setattr(polynomials, "ben_or", recorded)
        cap = polynomials.MAX_IRREDUCIBILITY_COST
        # each candidate is charged its own cost, at most one full test
        full = polynomials.irreducibility_cost(2, 100)
        with pytest.raises(ResourceError) as refused:
            find_irreducible(2, 100)
        spent = sum(min(c, full) for c in charges)
        assert f"among the first {len(charges)} candidates, charged {spent}:" in str(refused.value)
        assert spent <= cap < spent + full
        charges.clear()
        full = polynomials.irreducibility_cost(2, 40)
        find_irreducible(2, 40)
        assert len(charges) == 58
        assert sum(min(c, full) for c in charges[:-1]) + full <= cap < 58 * full

    def test_malformed_modulus_of_huge_degree_is_rejected_first(self):
        # the modulus length is checked before q = p^k is formed
        with pytest.raises(DomainError):
            make_field(2, 10**9, modulus=(1, 1))


def _golden_cli_fields():
    """(p, k, modulus) of every valid field the golden CLI records construct
    with the default generator."""
    out = set()
    for record in json.loads((Path(__file__).parent / "golden_cli.json").read_text()):
        argv = record["argv"]
        opts = dict(zip(argv[1::2], argv[2::2])) if len(argv) > 1 else {}
        if "--p" not in opts or "--generator" in opts:
            continue
        p, k = int(opts["--p"]), int(opts.get("--k", 1))
        modulus = tuple(int(c) for c in opts["--modulus"].split(",")) if "--modulus" in opts else None
        try:
            make_field(p, k, modulus)
        except DomainError:
            continue  # the records of invalid fields
        out.add((p, k, modulus))
    return sorted(out, key=str)


def _monic_polys(p, k):
    """Every monic degree-k polynomial over F_p, little-endian, in base-p
    order of the lower coefficients."""
    for n in range(p ** k):
        coeffs = []
        for _ in range(k):
            n, digit = divmod(n, p)
            coeffs.append(digit)
        yield tuple(coeffs) + (1,)


def _divides(div, poly, p):
    """Whether the monic polynomial div divides poly over F_p."""
    rem = list(poly)
    dd = len(div) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] % p
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] -= c * div[j]
    return all(c % p == 0 for c in rem[:dd])


def _irreducible_by_trial_division(poly, p):
    """The reference the Ben-Or test replaced: no monic divisor of degree
    1 .. k/2."""
    k = len(poly) - 1
    return all(
        not _divides(div, poly, p) for d in range(1, k // 2 + 1) for div in _monic_polys(p, d)
    )


class TestBenOrAgainstTrialDivision:
    #: (p, largest k): 2^11 + 3^7 + 5^5 + 7^4 + 11^3 + 13^3 monic polynomials of top degree
    GRID = {2: 11, 3: 7, 5: 5, 7: 4, 11: 3, 13: 3}

    @pytest.mark.parametrize("p", sorted(GRID))
    def test_every_monic_polynomial(self, p):
        tested = 0
        for k in range(1, self.GRID[p] + 1):
            for poly in _monic_polys(p, k):
                assert polynomials.ben_or(poly, p)[0] == _irreducible_by_trial_division(poly, p), poly
                tested += 1
        assert tested == sum(p ** k for k in range(1, self.GRID[p] + 1))

    #: the grid p <= 13, k <= 6, and every extension field of the golden CLI records
    FIRST_SURVIVOR_FIELDS = sorted(
        {(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 7)}
        | {(p, k) for p, k, _ in _golden_cli_fields() if k >= 2}
    )

    @pytest.mark.parametrize("p, k", FIRST_SURVIVOR_FIELDS)
    def test_canonical_modulus_is_first_survivor(self, p, k):
        first = next(poly for poly in _monic_polys(p, k) if _irreducible_by_trial_division(poly, p))
        assert find_irreducible(p, k) == make_field(p, k).modulus == first

    def test_degree_thirteen(self):
        # trial division would need about 13^6 divisors per candidate
        field = make_field(13, 13)
        assert field.modulus == (1, 12) + (0,) * 11 + (1,)  # t^13 - t + 1, an Artin-Schreier polynomial
        assert str(field.g) == "0,2" + ",0" * 11

    @pytest.mark.parametrize("p, k, modulus", [(7, 6, None), (2, 10, None), (7, 2, (3, 1, 1)), (13, 4, (2, 0, 0, 0, 1))])
    def test_one_test_of_the_final_modulus(self, monkeypatch, p, k, modulus):
        tested = []
        original = polynomials.ben_or

        def counted(poly, q):
            tested.append(tuple(poly))
            return original(poly, q)

        monkeypatch.setattr(polynomials, "ben_or", counted)
        field = make_field(p, k, modulus)
        assert tested.count(field.modulus) == 1
        if modulus is not None:
            assert tested == [field.modulus]


def _scan_from_the_first_candidate(p, k):
    """find_irreducible before it skipped binomials: a Ben-Or test for each
    candidate from t^k on, charged as the scan charges it; None where the
    cost cap refuses."""
    cap = polynomials.MAX_IRREDUCIBILITY_COST
    full = polynomials.irreducibility_cost(p, k)
    spent = 0
    for poly in _monic_polys(p, k):
        if spent + full > cap:
            return None
        irreducible, cost = polynomials.ben_or(poly, p)
        if irreducible:
            return poly
        spent += min(cost, full)


#: (p, k), 2 < p < 200 and k <= 8, where no binomial t^k + a is irreducible:
#: a prime r | k does not divide p - 1, or 4 | k and p = 3 (mod 4)
NO_BINOMIAL = [
    (p, k) for p in primes_up_to(199) if p > 2 for k in range(2, 9)
    if any((p - 1) % r for r in prime_factors(k)) or (k % 4 == 0 and p % 4 != 1)
]


class TestBinomialSkip:
    def test_cases(self):
        assert len(NO_BINOMIAL) == 170
        assert (11, 3) in NO_BINOMIAL and (7, 4) in NO_BINOMIAL and (7, 8) in NO_BINOMIAL
        assert (13, 4) not in NO_BINOMIAL and not any(k == 2 for _, k in NO_BINOMIAL)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_same_modulus_as_the_unskipped_scan(self, monkeypatch, k):
        tested = []
        original = polynomials.ben_or
        monkeypatch.setattr(polynomials, "ben_or", lambda poly, q: tested.append(poly) or original(poly, q))
        for p in (p for p, kk in NO_BINOMIAL if kk == k):
            expected = _scan_from_the_first_candidate(p, k)
            assert expected is not None, (p, k)  # the unskipped scan answers every case
            index = sum(c * p ** i for i, c in enumerate(expected[:k]))
            assert index >= p  # no binomial is irreducible
            tested.clear()
            assert find_irreducible(p, k) == expected, (p, k)
            assert len(tested) == index - p + 1 and all(any(poly[1:k]) for poly in tested), (p, k)

    def test_characteristic_two_scans_every_binomial(self, monkeypatch):
        # t^k and t^k + 1 are reducible over F_2, yet p = 2 keeps the full scan
        tested = []
        original = polynomials.ben_or
        monkeypatch.setattr(polynomials, "ben_or", lambda poly, q: tested.append(poly) or original(poly, q))
        assert find_irreducible(2, 3) == (1, 1, 0, 1)
        assert tested[:2] == [(0, 0, 0, 1), (1, 0, 0, 1)]

    def test_fields_beyond_the_old_cap(self):
        # the unskipped scan spends its cost cap on the p binomials of these
        assert make_field(4999, 4).modulus == (1, 1, 0, 0, 1)
        assert make_field(10007, 3).modulus == (1, 1, 0, 1)


def _full_walk_generator(field):
    """First code from 1 up whose element has order q - 1."""
    n = field.q - 1
    for code in range(1, field.q):
        x = field.element_from_int(code)
        if all(x ** (n // ell) != field.one for ell in prime_factors(n)):
            return x
    raise AssertionError(f"no generator of F_{field.q}")


class TestGeneratorSearch:
    FIELDS = sorted(
        {(p, k, None) for p, k in verify.SUPPORTED_FIELDS.values()}
        | {(97, 2, None), (13, 4, None), (7, 6, None), (2, 10, None), (11, 3, None)}
        | set(_golden_cli_fields()),
        key=str,
    )

    def test_golden_fields_found(self):
        assert (7, 2, (1, 0, 1)) in _golden_cli_fields() and (10009, 1, None) in _golden_cli_fields()

    @pytest.mark.parametrize("p, k, modulus", FIELDS, ids=str)
    def test_skip_matches_full_walk(self, p, k, modulus):
        field = make_field(p, k, modulus)
        assert field.g == _full_walk_generator(field)

    def test_large_prime_square(self):
        # the full walk would test all 99,990 nonzero prime-subfield elements first
        start = time.perf_counter()
        field = make_field(99991, 2)
        elapsed = time.perf_counter() - start
        assert str(field.g) == "5,1" and int(field.g) == 99996
        assert elapsed < 5.0

    def test_q_minus_1_beyond_the_primality_range(self):
        # q - 1 = 7^30 - 1 is above 3.3 * 10^24: is_prime divides by its small primes before it refuses
        field = make_field(7, 30)
        assert field.modulus == (5, 1, 1) + (0,) * 27 + (1,)
        assert field.g.coeffs == (0, 1) + (0,) * 28

    @pytest.mark.parametrize("p, k", [(7, 1), (7, 2)])
    def test_candidate_cap_boundary(self, monkeypatch, p, k):
        g_code = int(make_field(p, k).g)  # 3 over F_7 and 9 = (2, 1) over F_49, each tried third
        tried = g_code if k == 1 else g_code - p + 1
        monkeypatch.setattr(fields_module, "_MAX_GENERATOR_CANDIDATES", tried)
        assert int(make_field(p, k).g) == g_code
        monkeypatch.setattr(fields_module, "_MAX_GENERATOR_CANDIDATES", tried - 1)
        with pytest.raises(ResourceError):
            make_field(p, k)


def test_characteristic_three_classes_refusal_prints_true_residue(f9):
    with pytest.raises(DomainError, match=r"^q = 9 = 0 \(mod 3\): every element is a cube"):
        f9.cube_class(f9.one)
