import ast
import cmath
import math
from collections import Counter
from pathlib import Path

import pytest

from diagcubic import (
    CubicClass,
    DomainError,
    EisensteinInt,
    FieldDescriptor,
    IntegrityError,
    ResourceError,
    cubic_data,
    make_field,
    oracle,
    verify,
)
from diagcubic.eisenstein import EI_ONE, OMEGA, OMEGA2, jacobi_sum_cubic
from diagcubic.fields import NONZERO_CLASSES
from diagcubic.oracle import (
    CyclotomicInt,
    brute_diagonal_naive,
    brute_twisted,
    cube_histogram,
    cubic_exp_sum,
    diagonal_count_vector,
    gauss_sum,
    orthogonality_sum,
)


def _chi(field, x):
    """chi(x) for a unit x: 1, w or w^2 by FieldDescriptor.cube_class, a field
    power, so a reference independent of the oracle's log table."""
    return (EI_ONE, OMEGA, OMEGA2)[NONZERO_CLASSES.index(field.cube_class(x))]


class TestCubeHistogram:
    def test_f4(self, f4):
        assert cube_histogram(f4) == (1, 3, 0, 0)

    def test_f7(self, f7):
        assert cube_histogram(f7) == (1, 3, 0, 0, 0, 0, 3)
        assert diagonal_count_vector(f7, 1)[int(f7.element([6]))] == 3

    def test_bijective_field(self):
        assert cube_histogram(make_field(5)) == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (13, 1), (2, 4), (7, 2)])
    def test_invariants(self, p, k):
        field = make_field(p, k)
        hist = cube_histogram(field)
        assert sum(hist) == field.q
        assert hist[0] == 1
        for v, count in zip(field.elements(), hist):
            if v.is_zero():
                continue
            assert count in (0, 3)
            assert (count == 3) == (field.cube_class(v) is CubicClass.C0)


class TestBruteCounts:
    def test_known_values(self, f4, f7):
        assert diagonal_count_vector(f4, 2)[int(f4.zero)] == 10
        assert diagonal_count_vector(f7, 3)[int(f7.zero)] == 55

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
            diagonal_count_vector(f7, 9)
        big = make_field(131)
        with pytest.raises(ResourceError):
            diagonal_count_vector(big, 2)
        assert diagonal_count_vector(big, 2, max_q=131)[int(big.zero)] == 131  # q = 2 (mod 3)

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
    """The exact Gauss sums behind the numeric-identity checks."""

    @pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (31, 1), (7, 2), (2, 6)])
    def test_modulus_and_cube(self, p, k):
        field = make_field(p, k)
        data = cubic_data(field)
        q = field.q
        g_sum = gauss_sum(field)
        assert type(g_sum) is CyclotomicInt and len(g_sum.a) == len(g_sum.b) == p
        assert g_sum * g_sum.conjugate() == q
        assert g_sum * gauss_sum(field, 2) == q
        g_conj = gauss_sum(field, 2)
        assert g_sum * g_sum * g_sum == data.gauss_cubed_over_q * q
        assert g_sum * g_sum * g_sum + g_conj * g_conj * g_conj == data.c * q

    def test_f7_value(self, f7):
        # g = 3: the terms chi(x) * zeta^x are zeta, w^2 zeta^2, w zeta^3, w zeta^4,
        # w^2 zeta^5 and zeta^6, less zeta^6 times 1 + zeta + ... + zeta^6
        g_sum = gauss_sum(f7)
        assert g_sum == CyclotomicInt((-1, 0, -2, -1, -1, -2, 0), (0, 0, -1, 1, 1, -1, 0))
        # (q/2) * (1 - 3*sqrt(3)*i) from the r-pair (1, -1), that is 7 * (-1 - 3w)
        assert g_sum * g_sum * g_sum == EisensteinInt(-1, -3) * 7
        assert g_sum * g_sum * g_sum != EisensteinInt(-1, -3).conjugate() * 7

    def test_rejects_bijective_regime(self):
        with pytest.raises(DomainError):
            gauss_sum(make_field(5))
        with pytest.raises(DomainError):
            gauss_sum(make_field(5), 2)


class TestCubicExpSum:
    def test_roots_of_cubic(self, f7):
        data = cubic_data(f7)
        g = f7.g
        values = [cubic_exp_sum(f7, g ** i) for i in (1, 2, 3)]
        for s in values:
            assert s * s * s == 3 * 7 * s + 7 * data.c
            assert s * s * s != 3 * 7 * s + 7 * (data.c + 1)
        assert values[0] + values[1] + values[2] == 0  # the cubic has no quadratic term
        assert len(set(values)) == 3

    def test_periodicity(self, f7):
        g = f7.g
        assert cubic_exp_sum(f7, g ** 4) == cubic_exp_sum(f7, g)
        assert cubic_exp_sum(f7, g ** 2) != cubic_exp_sum(f7, g)

    def test_gauss_decomposition(self, f13):
        g_sum = gauss_sum(f13)
        g_conj = gauss_sum(f13, 2)
        for h in f13.nonzero_elements():
            chi = _chi(f13, h)
            assert cubic_exp_sum(f13, h) == g_sum * chi.conjugate() + g_conj * chi

    def test_zero_rejected(self, f7):
        with pytest.raises(DomainError):
            cubic_exp_sum(f7, f7.zero)


class TestJacobiNumeric:
    """G^2 = J * G-bar, with J the Cornacchia Jacobi sum: the exact form of
    the Jacobi sum G^2 / G-bar."""

    @pytest.mark.parametrize("p", [7, 13, 31])
    def test_matches_exact(self, p):
        field = make_field(p)
        j_sum = jacobi_sum_cubic(p, pow(int(field.g), (p - 1) // 3, p))
        g_sum, g_conj = gauss_sum(field), gauss_sum(field, 2)
        assert g_sum * g_sum == g_conj * j_sum
        assert g_sum * g_sum != g_conj * j_sum.conjugate()

    def test_f31_value(self, f31):
        assert gauss_sum(f31) * gauss_sum(f31) == gauss_sum(f31, 2) * EisensteinInt(5, 6)

    def test_norm(self, f13):
        # G^2 * conj(G-bar) = q * J, and |G^2 * conj(G-bar)|^2 = q^3 gives |J|^2 = q
        g_sum, g_conj = gauss_sum(f13), gauss_sum(f13, 2)
        q_j = g_sum * g_sum * g_conj.conjugate()
        assert q_j == jacobi_sum_cubic(13, pow(int(f13.g), 4, 13)) * 13
        assert q_j * q_j.conjugate() == 13 ** 3

    def test_extension_field_rejected(self, f49):
        # over F_49 the Jacobi sum is -J_7^2 (Hasse-Davenport), not the prime-field
        # J_7 that jacobi_sum_cubic gives, so verify makes this check on prime fields only
        j7 = jacobi_sum_cubic(7, pow(f49.g.norm(), 2, 7))
        g_sum, g_conj = gauss_sum(f49), gauss_sum(f49, 2)
        assert g_sum * g_sum != g_conj * j7
        assert g_sum * g_sum == g_conj * -(j7 * j7)


class TestOrthogonality:
    @pytest.mark.parametrize("p,k", [(7, 1), (7, 2), (2, 6), (5, 1)])
    def test_holds(self, p, k):
        field = make_field(p, k)
        q = field.q
        assert orthogonality_sum(field, field.zero) == q
        assert all(orthogonality_sum(field, x) == 0 for x in field.nonzero_elements())
        assert orthogonality_sum(field, field.one) != q

    def test_characteristic_three_refused(self):
        # zeta_3 = w, so Z[w][zeta_3] has no unique coordinates
        f9 = make_field(3, 2)
        with pytest.raises(DomainError, match="characteristic 3"):
            orthogonality_sum(f9, f9.one)
        with pytest.raises(DomainError, match="characteristic 3"):
            cubic_exp_sum(f9, f9.one)


class TestCyclotomicInt:
    """Z[w][zeta_p] arithmetic: one representative per element, so == is exact."""

    def test_relation_is_zero(self):
        # 1 + zeta + ... + zeta^4 = 0 and w + w*zeta + ... + w*zeta^4 = 0
        assert oracle._cyclotomic([1] * 5, [0] * 5) == 0
        assert oracle._cyclotomic([0] * 5, [1] * 5) == 0
        assert oracle._cyclotomic([2, 1, 1, 1, 1], [0] * 5) == 1
        assert oracle._cyclotomic([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) != 0

    def test_zeta_to_the_p_is_one(self):
        zeta = oracle._cyclotomic([0, 1, 0, 0, 0, 0, 0], [0] * 7)
        powers = [zeta]
        for _ in range(6):
            powers.append(powers[-1] * zeta)
        assert powers[6] == 1 and all(power != 1 for power in powers[:6])
        assert zeta * zeta.conjugate() == 1

    def test_scalars_and_hash(self, f7):
        g_sum = gauss_sum(f7)
        assert g_sum * OMEGA * OMEGA2 == g_sum * EI_ONE == g_sum * 1 == 1 * g_sum == g_sum
        assert g_sum + 0 == g_sum and g_sum + g_sum * -1 == 0
        # a constant times coordinatewise, and as an element through the cyclic product
        assert g_sum * OMEGA == g_sum * oracle._cyclotomic([0] * 7, [1, 0, 0, 0, 0, 0, 0])
        assert g_sum * 3 == g_sum + g_sum + g_sum
        assert hash(gauss_sum(f7)) == hash(g_sum)
        assert (g_sum == "G") is False

    def test_other_p_refused(self, f7, f13):
        with pytest.raises(DomainError):
            gauss_sum(f7) + gauss_sum(f13)

    def test_product_matches_schoolbook(self, f13):
        # the Kronecker product against the O(p^2) convolution it stands for
        x, y = gauss_sum(f13), cubic_exp_sum(f13, f13.g)
        p = 13
        a = [0] * p
        b = [0] * p
        for i in range(p):
            for j in range(p):
                a[(i + j) % p] += x.a[i] * y.a[j]
                b[(i + j) % p] += x.b[i] * y.a[j]
        assert x * y == oracle._cyclotomic(a, b)


class TestPerturbedSumsFail:
    """A wrong G, S_h or M fails its checks on every field: the checks compare."""

    @staticmethod
    def _failed():
        failed = {}
        for check in verify.check_numeric_identities():
            if check.status == "fail":
                _, name, q = check.name.split("/")
                failed.setdefault(name, set()).add(int(q.removeprefix("q=")))
        return failed

    def test_gauss_sum(self, monkeypatch):
        exact = oracle.gauss_sum
        monkeypatch.setattr(oracle, "gauss_sum", lambda field, e=1: exact(field, e) + 1 if e == 1 else exact(field, e))
        every = set(verify.SUPPORTED_FIELDS)
        primes = {q for q, (_, k) in verify.SUPPORTED_FIELDS.items() if k == 1}
        assert self._failed() == {
            "gauss-modulus": every, "gauss-product": every, "gauss-cubed-sum": every,
            "gauss-cubed-exact": every, "power-sum-decomposition": every, "jacobi-numeric": primes,
        }

    def test_cubic_exp_sum(self, monkeypatch):
        exact = oracle.cubic_exp_sum
        monkeypatch.setattr(oracle, "cubic_exp_sum", lambda field, h: exact(field, h) + 1)
        every = set(verify.SUPPORTED_FIELDS)
        assert self._failed() == {"power-sum-cubic": every, "power-sum-total": every, "power-sum-decomposition": every}

    def test_gauss_cube(self, monkeypatch):
        exact = verify.cubic_data

        def perturbed(field):
            data = exact(field)
            return data._replace(gauss_cubed_over_q=data.gauss_cubed_over_q + EI_ONE)

        monkeypatch.setattr(verify, "cubic_data", perturbed)
        assert self._failed() == {"gauss-cubed-exact": set(verify.SUPPORTED_FIELDS)}


# ---------------------------------------------------------------------------
# the table route against the FieldElement route it replaced

TABLE_FIELDS = [(2, 2), (7, 1), (13, 1), (2, 4), (5, 2), (7, 2), (2, 6), (5, 1), (2, 3), (127, 1)]

#: w = exp(2*pi*i/3) in double precision, for the differential tests only
_OMEGA_C = complex(-0.5, math.sqrt(3.0) / 2.0)


def _psi_by_element(field):
    """psi(x) = exp(2*pi*i*Tr(x)/p) from FieldElement.trace(), keyed by code."""
    return [cmath.exp(2j * cmath.pi * x.trace() / field.p) for x in field.elements()]


def _at_zeta(element, p):
    """The complex value of an exact element at zeta = exp(2*pi*i/p)."""
    zeta = cmath.exp(2j * cmath.pi / p)
    return sum((a + b * _OMEGA_C) * zeta ** j for j, (a, b) in enumerate(zip(element.a, element.b)))


def _chi_c(field, x):
    """The cubic character in double precision, from _chi."""
    value = _chi(field, x)
    return value.a + value.b * _OMEGA_C


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
class TestTableRoute:
    def test_cube_histogram(self, p, k):
        field = make_field(p, k)
        counts = [0] * field.q
        for x in field.elements():
            counts[int(x ** 3)] += 1
        assert cube_histogram(field) == tuple(counts)

    def test_trace_and_psi(self, p, k):
        # the trace table against FieldElement.trace(), and the exact sums of psi(a*x)
        # over a against double-precision ones built from FieldElement.trace()
        field = make_field(p, k)
        tables = oracle._tables(field)
        assert list(tables.trace) == [x.trace() for x in field.elements()]
        psi = _psi_by_element(field)
        elems = list(field.elements())
        for x in elems[:8]:
            expected = sum(psi[int(a * x)] for a in elems)
            assert abs(_at_zeta(orthogonality_sum(field, x), p) - expected) <= 1e-9 * field.q

    def test_gauss_sums(self, p, k):
        # the exact G and G-bar at zeta against double-precision sums from
        # FieldElement.trace() and _chi
        field = make_field(p, k)
        if field.q % 3 != 1:
            with pytest.raises(DomainError):
                gauss_sum(field)
            return
        psi = _psi_by_element(field)
        units = list(field.nonzero_elements())
        g_float = sum(_chi_c(field, x) * psi[int(x)] for x in units)
        g_conj_float = sum(_chi_c(field, x).conjugate() * psi[int(x)] for x in units)
        assert abs(_at_zeta(gauss_sum(field), p) - g_float) <= 1e-9 * field.q
        assert abs(_at_zeta(gauss_sum(field, 2), p) - g_conj_float) <= 1e-9 * field.q

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
            assert abs(_at_zeta(cubic_exp_sum(field, h), p) - expected) <= 1e-9 * field.q

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


def test_numeric_identities_read_chi_off_the_log_table(monkeypatch):
    # chi(h) = w^(log h mod 3) from oracle._tables, with no field power per h
    calls = []
    real = FieldDescriptor.cube_class
    monkeypatch.setattr(FieldDescriptor, "cube_class", lambda self, z: calls.append(z) or real(self, z))
    checks = verify.check_numeric_identities()
    assert all(c.status == "pass" for c in checks)
    assert calls == []


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
        oracle._distribution(f7, oracle.MAX_S + 1)  # cached past the cap
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
        gauss_sum(f9)
