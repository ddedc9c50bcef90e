import ast
import cmath
import math
from collections import Counter
from pathlib import Path

import pytest

from diagcubic import (
    CubicClass,
    DomainError,
    IntegrityError,
    ResourceError,
    cubic_data,
    make_field,
    oracle,
    verify,
)
from diagcubic.eisenstein import jacobi_sum_cubic
from diagcubic.oracle import (
    brute_diagonal,
    brute_diagonal_naive,
    brute_twisted,
    conjugate_gauss_sum_numeric,
    cube_histogram,
    cubic_exp_sum_numeric,
    diagonal_count_vector,
    gauss_sum_numeric,
    jacobi_sum_numeric,
    orthogonality_check,
)


class TestCubeHistogram:
    def test_f4(self, f4):
        assert cube_histogram(f4).counts == (1, 3, 0, 0)

    def test_f7(self, f7):
        hist = cube_histogram(f7)
        assert hist.counts == (1, 3, 0, 0, 0, 0, 3)
        assert hist.count_of(f7.element([6])) == 3

    def test_bijective_field(self):
        assert cube_histogram(make_field(5)).counts == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (13, 1), (2, 4), (7, 2)])
    def test_invariants(self, p, k):
        field = make_field(p, k)
        hist = cube_histogram(field)
        assert sum(hist.counts) == field.q
        assert hist.counts[0] == 1
        for v, count in hist.items():
            if v.is_zero():
                continue
            assert count in (0, 3)
            assert (count == 3) == (field.cube_class(v) is CubicClass.C0)


class TestBruteCounts:
    def test_known_values(self, f4, f7):
        assert brute_diagonal(f4, 2, f4.zero) == 10
        assert brute_diagonal(f7, 3, f7.zero) == 55

    def test_total_is_q_to_s(self, f7):
        assert sum(diagonal_count_vector(f7, 3)) == 7 ** 3

    def test_matches_naive_enumeration(self):
        for p, k in ((2, 2), (7, 1), (13, 1), (2, 4)):
            field = make_field(p, k)
            for s in (1, 2, 3):
                vector = diagonal_count_vector(field, s)
                for z in field.elements():
                    assert vector[int(z)] == brute_diagonal_naive(field, s, z)

    def test_twisted_values(self, f31, f7):
        assert brute_twisted(f31, 3, f31.element([3])) == 1171
        assert brute_twisted(f31, 3, f31.element([9])) == 631
        assert brute_twisted(f7, 2, f7.element([3])) == 1

    def test_twisted_identity(self, f13):
        # T_s(y) = N_{s-1}(0) + (q-1) * N_{s-1}(y), both sides brute force
        for s in (2, 3, 4):
            vector = diagonal_count_vector(f13, s - 1)
            for y in f13.nonzero_elements():
                lhs = brute_twisted(f13, s, y)
                assert lhs == vector[0] + (f13.q - 1) * vector[int(y)]

    def test_class_shift_invariance(self, f13):
        for s in (2, 3):
            vector = diagonal_count_vector(f13, s)
            by_class = {}
            for z in f13.nonzero_elements():
                by_class.setdefault(f13.cube_class(z), set()).add(vector[int(z)])
            assert all(len(values) == 1 for values in by_class.values())

    def test_caps(self, f7):
        with pytest.raises(ResourceError):
            brute_diagonal(f7, 9, f7.zero)
        big = make_field(131)
        with pytest.raises(ResourceError):
            brute_diagonal(big, 2, big.zero)
        assert brute_diagonal(big, 2, big.zero, max_q=131) == 131  # q = 2 (mod 3)

    def test_argument_errors(self, f7):
        with pytest.raises(DomainError):
            brute_twisted(f7, 2, f7.zero)
        with pytest.raises(DomainError):
            brute_twisted(f7, 1, f7.one)
        with pytest.raises(DomainError):
            diagonal_count_vector(f7, 0)
        with pytest.raises(ResourceError):
            brute_diagonal_naive(make_field(31), 4, make_field(31).zero)


class TestGaussSumNumeric:
    @pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (31, 1), (7, 2), (2, 6)])
    def test_modulus_and_cube(self, p, k):
        field = make_field(p, k)
        data = cubic_data(field)
        q = field.q
        g_sum = gauss_sum_numeric(field)
        assert cmath.isfinite(g_sum)
        assert abs(abs(g_sum) - math.sqrt(q)) <= 1e-9 * math.sqrt(q)
        assert abs(g_sum * conjugate_gauss_sum_numeric(field) - q) <= 1e-6 * q
        assert abs(g_sum ** 3 / q - data.gauss_cubed_over_q.to_complex()) <= 1e-6 * math.sqrt(q)

    def test_f7_value(self, f7):
        # (q/2) * (1 - 3*sqrt(3)*i) from the r-pair (1, -1)
        expected = complex(3.5, -10.5 * math.sqrt(3))
        assert abs(gauss_sum_numeric(f7) ** 3 - expected) <= 1e-9

    def test_rejects_bijective_regime(self):
        with pytest.raises(DomainError):
            gauss_sum_numeric(make_field(5))


class TestCubicExpSum:
    def test_roots_of_cubic(self, f7):
        data = cubic_data(f7)
        g = f7.g
        values = [cubic_exp_sum_numeric(f7, g ** i) for i in (1, 2, 3)]
        for s in values:
            assert abs(s ** 3 - 3 * 7 * s - 7 * data.c) <= 1e-5 * 7 ** 1.5
        assert abs(sum(values)) <= 1e-9  # the cubic has no quadratic term

    def test_periodicity(self, f7):
        g = f7.g
        assert abs(cubic_exp_sum_numeric(f7, g ** 4) - cubic_exp_sum_numeric(f7, g)) <= 1e-9

    def test_gauss_decomposition(self, f13):
        g_sum = gauss_sum_numeric(f13)
        g_conj = conjugate_gauss_sum_numeric(f13)
        for h in f13.nonzero_elements():
            chi = f13.cubic_character(h).to_complex()
            expected = chi.conjugate() * g_sum + chi * g_conj
            assert abs(cubic_exp_sum_numeric(f13, h) - expected) <= 1e-6 * math.sqrt(13)

    def test_zero_rejected(self, f7):
        with pytest.raises(DomainError):
            cubic_exp_sum_numeric(f7, f7.zero)


class TestJacobiNumeric:
    @pytest.mark.parametrize("p", [7, 13, 31])
    def test_matches_exact(self, p):
        field = make_field(p)
        exact = jacobi_sum_cubic(p, int(field.g)).to_complex()
        assert abs(jacobi_sum_numeric(field) - exact) <= 1e-6 * math.sqrt(p)

    def test_f31_value(self, f31):
        expected = complex(2, 3 * math.sqrt(3))  # 5 + 6w embedded
        assert abs(jacobi_sum_numeric(f31) - expected) <= 1e-9

    def test_norm(self, f13):
        assert abs(abs(jacobi_sum_numeric(f13)) ** 2 - 13) <= 1e-9

    def test_extension_field_rejected(self, f49):
        with pytest.raises(DomainError):
            jacobi_sum_numeric(f49)


class TestOrthogonality:
    @pytest.mark.parametrize("p,k", [(7, 1), (7, 2), (2, 6), (5, 1)])
    def test_holds(self, p, k):
        report = orthogonality_check(make_field(p, k))
        assert report
        assert report.max_error <= 1e-6


# ---------------------------------------------------------------------------
# the table route against the FieldElement route it replaced

TABLE_FIELDS = [(2, 2), (7, 1), (13, 1), (2, 4), (5, 2), (7, 2), (2, 6), (5, 1), (2, 3), (127, 1)]


def _psi_by_element(field):
    """psi(x) = exp(2*pi*i*Tr(x)/p) from FieldElement.trace(), keyed by code."""
    return [cmath.exp(2j * cmath.pi * x.trace() / field.p) for x in field.elements()]


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
class TestTableRoute:
    def test_cube_histogram(self, p, k):
        field = make_field(p, k)
        counts = [0] * field.q
        for x in field.elements():
            counts[int(x ** 3)] += 1
        assert cube_histogram(field).counts == tuple(counts)

    def test_trace_and_psi(self, p, k):
        field = make_field(p, k)
        tables = oracle._tables(field)
        assert list(tables.trace) == [x.trace() for x in field.elements()]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(tables.psi, _psi_by_element(field), strict=True))

    def test_add_codes(self, p, k):
        # the digit-wise table against FieldElement addition, its definition
        field = make_field(p, k)
        elems = list(field.elements())
        assert oracle._add_codes(field) == [[int(a + b) for b in elems] for a in elems]

    def test_exp_and_log(self, p, k):
        field = make_field(p, k)
        tables = oracle._tables(field)
        x = field.one
        for i in range(field.q - 1):
            assert tables.exp[i] == int(x) and tables.log[int(x)] == i
            x = x * field.g

    def test_cubic_exp_sums(self, p, k):
        field = make_field(p, k)
        psi = _psi_by_element(field)
        cubes = [x ** 3 for x in field.elements()]
        for h in field.nonzero_elements():
            expected = sum(psi[int(h * c)] for c in cubes)
            assert abs(cubic_exp_sum_numeric(field, h) - expected) <= 1e-9

    def test_brute_twisted(self, p, k):
        # T_s(y) = N_{s-1}(0) + (q - 1) * N_{s-1}(y): x_s = 0, or x_s a unit and
        # N_{s-1}(-y * x_s^3) = N_{s-1}(y), since -x_s^3 is a nonzero cube
        field = make_field(p, k)
        for s in (2, 3):
            vector = diagonal_count_vector(field, s - 1)
            for y in field.nonzero_elements():
                assert brute_twisted(field, s, y) == vector[0] + (field.q - 1) * vector[int(y)]


def test_tables_refuse_a_non_generator(monkeypatch):
    field = make_field(7)
    monkeypatch.setattr(field, "g", field.element([2]))  # order 3, not 6
    with pytest.raises(IntegrityError, match=r"after 3 steps .*order q - 1 = 6 "):
        oracle._tables(field)
    with pytest.raises(IntegrityError):
        cube_histogram(field)


def test_full_report_builds_each_table_once(monkeypatch):
    touched = set()
    cached = oracle._tables

    def recording(field):
        touched.add(field)
        return cached(field)

    cached.cache_clear()
    monkeypatch.setattr(oracle, "_tables", recording)
    report = verify.full_report(jacobi_bound=100)
    assert report["failed"] == 0
    info = cached.cache_info()
    assert info.misses == len(touched) == info.currsize
    assert info.hits > 0


def test_full_report_convolves_each_distribution_once(monkeypatch):
    keys = set()
    cached = oracle._distribution

    def recording(field, s):
        keys.add((field, s))
        return cached(field, s)

    cached.cache_clear()
    monkeypatch.setattr(oracle, "_distribution", recording)
    report = verify.full_report(jacobi_bound=100)
    assert report["failed"] == 0
    info = cached.cache_info()
    assert info.misses == len(keys) == info.currsize
    assert info.hits > 0


def _reference_distributions(field, s_max):
    """dist(1) .. dist(s_max), each convolved from the last by FieldElement
    addition over all q cubes, with no table or cache of the oracle's."""
    cubes = [x ** 3 for x in field.elements()]
    dist = {field.zero: 1}
    for _ in range(s_max):
        nxt = Counter()
        for v, n in dist.items():
            for c in cubes:
                nxt[v + c] += n
        dist = nxt
        yield [dist[z] for z in field.elements()]


class TestConvolutionChain:
    """The cached chain dist(s) = dist(s - 1) * histogram against a
    from-scratch reference, and the caps and copies around the cache."""

    @pytest.mark.parametrize("p, k", [*verify.SUPPORTED_FIELDS.values(), *verify.TRIVIAL_FIELDS.values()])
    def test_equals_reference_up_to_the_caps(self, p, k):
        field = make_field(p, k)
        assert field.q <= oracle.MAX_Q
        oracle._distribution.cache_clear()
        # largest s first: the chain must build every step below it
        assert diagonal_count_vector(field, oracle.MAX_S)[0] > 0
        y = field.g
        balance = [int(-(y * x ** 3)) for x in field.elements()]  # x_s with N_{s-1}(-y * x_s^3)
        previous = None
        for s, expected in enumerate(_reference_distributions(field, oracle.MAX_S), start=1):
            assert diagonal_count_vector(field, s) == expected, s
            if previous is not None:
                assert brute_twisted(field, s, y) == sum(previous[code] for code in balance), s
            previous = expected

    def test_returned_lists_are_copies(self, f13):
        first = diagonal_count_vector(f13, 3)
        expected = list(first)
        first[0] += 1
        first.append(0)
        assert diagonal_count_vector(f13, 3) == expected
        assert diagonal_count_vector(f13, 3) is not diagonal_count_vector(f13, 3)

    def test_caps_hold_for_keys_cached_under_raised_caps(self, f7):
        f131 = make_field(131)
        y = f131.g
        diagonal_count_vector(f131, 2, max_q=131)
        brute_twisted(f131, 3, y, max_q=131)
        diagonal_count_vector(f7, oracle.MAX_S + 1, max_s=oracle.MAX_S + 1)
        with pytest.raises(ResourceError, match=r"q = 131, s = 2 exceeds the cap"):
            diagonal_count_vector(f131, 2)
        with pytest.raises(ResourceError, match=r"q = 131, s = 3 exceeds the cap"):
            brute_twisted(f131, 3, y)
        with pytest.raises(ResourceError, match=rf"q = 7, s = {oracle.MAX_S + 1} exceeds the cap"):
            diagonal_count_vector(f7, oracle.MAX_S + 1)


def test_oracle_imports_only_errors_and_fields():
    # the oracle must not read the closed forms (counting, constants) it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package_imports.add(node.module or "")
            elif (node.module or "").startswith("diagcubic"):
                package_imports.add(node.module.removeprefix("diagcubic").lstrip("."))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("diagcubic"):
                    package_imports.add(alias.name.removeprefix("diagcubic").lstrip("."))
    assert package_imports == {"errors", "fields"}


def test_characteristic_three_refusal_prints_true_residue(f9):
    with pytest.raises(DomainError, match=r"^q = 9 = 0 \(mod 3\) has no cubic character$"):
        gauss_sum_numeric(f9)
