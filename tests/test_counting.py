import pytest

from diagcubic import (
    CubicClass,
    DomainError,
    IntegrityError,
    ResourceError,
    bijective_count,
    count_diagonal,
    count_twisted,
    cubic_data,
    diagonal_series,
    make_field,
    twisted_series,
)
from diagcubic import counting as counting_module
from diagcubic import verify as verify_module
from diagcubic.constants import delta
from diagcubic.counting import excess_seeds
from diagcubic.oracle import diagonal_count_vector
from diagcubic.verify import SUPPORTED_FIELDS, signed_d_mod4, twisted3_closed

C0, C1, C2, ZERO = CubicClass.C0, CubicClass.C1, CubicClass.C2, CubicClass.ZERO


class TestSeeds:
    def test_f31_cube_row(self, f31):
        data = cubic_data(f31)
        assert excess_seeds(data, C0) == (2, 2, 182)  # (2, c-2, 6q-c) with c = 4

    def test_f7_noncube_row(self, f7):
        data = cubic_data(f7)
        assert excess_seeds(data, C1) == (-1, -7, -22)
        assert excess_seeds(data, C2) == (-1, 2, -22)

    def test_d_zero_classes_coincide(self, f4):
        data = cubic_data(f4)
        assert excess_seeds(data, C1) == excess_seeds(data, C2)

    def test_zero_row(self, f7):
        assert excess_seeds(cubic_data(f7), ZERO) == (0, 12, 6)  # (0, 2(q-1), c(q-1)) with c = 1


class TestRecurrence:
    def test_f7_step(self, f7):
        data = cubic_data(f7)
        # u_4 = 3q*u_2 + qc*u_1 = 21*(-1) + 7*2 = -7 for the cube class
        assert count_diagonal(data, 4, C0) - data.q ** 3 == -7  # N_4 = 336, brute-checked

    def test_seed_positions(self, f7):
        data = cubic_data(f7)
        assert count_diagonal(data, 3, C0) - data.q ** 2 == excess_seeds(data, C0)[2]

    def test_f31_two_steps(self, f31):
        data = cubic_data(f31)
        u1, u2, u3 = excess_seeds(data, C1)
        q, c = data.q, data.c
        assert count_diagonal(data, 5, C1) - q ** 4 == 3 * q * u3 + q * c * u2

    def test_closure_for_all_supported_fields(self):
        for q, (p, k) in SUPPORTED_FIELDS.items():
            data = cubic_data(make_field(p, k))
            for target in (ZERO, C0, C1, C2):
                coeffs = diagonal_series(data, target, 8).coefficients
                u = [n - q ** i for i, n in enumerate(coeffs)]
                for s in range(3, 8):  # u[s] is the (s+1)-th term
                    assert u[s] == 3 * q * u[s - 2] + q * data.c * u[s - 3]


class TestCountDiagonal:
    def test_zero_target_values(self, f7):
        data4 = cubic_data(make_field(2, 2))
        assert count_diagonal(data4, 2, ZERO) == 10  # 3q - 2
        data7 = cubic_data(f7)
        assert count_diagonal(data7, 3, ZERO) == 55  # q^2 + cq - c

    def test_nonzero_targets(self, f7):
        data = cubic_data(f7)
        assert f7.cube_class(f7.element([6])) is C0  # -1 is a cube
        assert count_diagonal(data, 2, C0) == 6  # q + c - 2
        assert count_diagonal(data, 1, C2) == 0  # a non-cube has no cube root

    def test_empty_tuple_convention(self, f7):
        data = cubic_data(f7)
        assert count_diagonal(data, 0, ZERO) == 1
        assert count_diagonal(data, 0, C0) == 0
        with pytest.raises(DomainError):
            count_diagonal(data, -1, ZERO)

    def test_total_count_identity(self):
        for q, (p, k) in SUPPORTED_FIELDS.items():
            data = cubic_data(make_field(p, k))
            per_class = (q - 1) // 3
            for s in range(1, 6):
                total = count_diagonal(data, s, ZERO) + per_class * sum(
                    count_diagonal(data, s, cls) for cls in (C0, C1, C2)
                )
                assert total == q ** s


class TestBijectiveCount:
    def test_values(self):
        assert bijective_count(5, 3, False) == 25
        assert bijective_count(5, 1, True) == 1
        assert bijective_count(5, 0, True) == 1
        assert bijective_count(5, 0, False) == 0

    def test_rejects_wrong_regime(self):
        with pytest.raises(DomainError):
            bijective_count(7, 2, True)


class TestCountTwisted:
    def test_worked_example(self, f31):
        data = cubic_data(f31)
        assert count_twisted(data, 3, C1) == 1171
        assert count_twisted(data, 3, C2) == 631

    def test_two_variables_force_trivial_solution(self):
        for q, (p, k) in SUPPORTED_FIELDS.items():
            data = cubic_data(make_field(p, k))
            assert count_twisted(data, 2, C1) == 1
            assert count_twisted(data, 2, C2) == 1

    def test_domain_errors(self, f31):
        data = cubic_data(f31)
        with pytest.raises(DomainError):
            count_twisted(data, 3, C0)
        with pytest.raises(DomainError):
            count_twisted(data, 1, C1)


class TestTwisted3Closed:
    def test_values(self, f31, f7):
        data31 = cubic_data(f31)
        assert twisted3_closed(data31, C1) == 1171
        assert twisted3_closed(data31, C2) == 631
        data7 = cubic_data(f7)
        assert twisted3_closed(data7, C1) == 19  # 49 + 3 * (-1 - 9)

    def test_d_zero_collapses_classes(self, f4):
        data = cubic_data(f4)
        expected = data.q ** 2 - data.c * (data.q - 1) // 2
        assert twisted3_closed(data, C1) == twisted3_closed(data, C2) == expected

    def test_matches_recurrence_route(self):
        for q, (p, k) in SUPPORTED_FIELDS.items():
            data = cubic_data(make_field(p, k))
            for cls in (C1, C2):
                assert twisted3_closed(data, cls) == count_twisted(data, 3, cls)


class TestSeries:
    def test_zero_window(self, f7):
        window = diagonal_series(cubic_data(f7), ZERO, 3)
        assert window.coefficients == (1, 19, 55)
        assert window.target is ZERO

    def test_single_terms(self, f31):
        data = cubic_data(f31)
        assert diagonal_series(data, C0, 1).coefficients == (3,)
        assert diagonal_series(data, C1, 1).coefficients == (0,)

    def test_matches_pointwise_counts(self, f49):
        data = cubic_data(f49)
        for target in (ZERO, C0, C1, C2):
            window = diagonal_series(data, target, 7)
            assert window.coefficients == tuple(count_diagonal(data, s, target) for s in range(1, 8))

    def test_needs_positive_length(self, f7):
        with pytest.raises(DomainError):
            diagonal_series(cubic_data(f7), ZERO, 0)

    def test_twisted_stream_matches_convolution_identity(self):
        # the generating function and N_{s-1}(0) + (q-1) N_{s-1}(y) routes agree
        for q, (p, k) in SUPPORTED_FIELDS.items():
            data = cubic_data(make_field(p, k))
            for cls in (C1, C2):
                stream = twisted_series(data, cls, 5)
                direct = tuple(count_twisted(data, s, cls) for s in range(2, 7))
                assert stream == direct

    def test_twisted_stream_rejects_cubes(self, f31):
        with pytest.raises(DomainError):
            twisted_series(cubic_data(f31), C0, 3)


class TestSignedDMod4:
    def test_f7_example(self, f7):
        assert f7.cube_class(f7.element([3])) is C1
        assert signed_d_mod4(f7, C1) == -1

    def test_2_cubic_rejected(self, f31):
        with pytest.raises(DomainError):
            signed_d_mod4(f31, C1)  # 2 = 3^24 is a cube mod 31

    def test_f13_branch(self, f13):
        cls2 = f13.cube_class(f13.element([2]))
        data = cubic_data(f13)
        signed = signed_d_mod4(f13, cls2)
        assert signed % 4 == data.c % 4  # y sharing 2's class takes the congruent branch
        assert signed == -delta(data, cls2) * data.d

    def test_contract_against_closed_form(self):
        for p in (7, 13, 19, 37):
            field = make_field(p)
            data = cubic_data(field)
            for cls in (C1, C2):
                signed = signed_d_mod4(field, cls)
                t3 = p * p + (p - 1) * (-data.c + 9 * signed) // 2
                assert t3 == twisted3_closed(data, cls)

    def test_beyond_the_search_cap(self):
        # (c, d) comes from cubic_data, so p past the cap of cd_search answers
        assert not hasattr(counting_module, "cd_search")
        p = 10_000_000_000_051
        field = make_field(p)
        data = cubic_data(field)
        cls_two = field.cube_class(field.element([2]))
        assert cls_two is not C0
        for cls in (C1, C2):
            signed = signed_d_mod4(field, cls)
            assert signed == -delta(data, cls) * data.d
            assert (signed % 4 == data.c % 4) == (cls is cls_two)
        assert 4 * p == data.c ** 2 + 27 * data.d ** 2

    def test_domain_errors(self, f49):
        with pytest.raises(DomainError):
            signed_d_mod4(f49, C1)  # extension field
        with pytest.raises(DomainError):
            signed_d_mod4(make_field(5), C1)  # p = 2 (mod 3)
        with pytest.raises(DomainError):
            signed_d_mod4(make_field(7), C0)

    def test_check_bound_above_the_cap_refused_before_the_sieve(self, monkeypatch):
        sieved = []
        monkeypatch.setattr(verify_module, "primes_up_to", lambda n: sieved.append(n) or [])
        with pytest.raises(ResourceError) as refused:
            verify_module.check_mod4_sign_rule(prime_bound=10**5)
        assert str(refused.value) == (
            "a mod-4 sign-rule check to 100000 needs brute-force counts above the cap of p <= 2000"
        )
        assert sieved == []
        verify_module.check_mod4_sign_rule(prime_bound=2000)  # the cap itself reaches the sieve
        assert sieved == [2000]


class TestCharacteristicThree:
    """Cubing is the Frobenius map in characteristic 3, so every count is q^(s-1)."""

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_equals_convolution(self, k):
        field = make_field(3, k)
        for s in (1, 2, 3):
            vector = diagonal_count_vector(field, s)
            for z in field.elements():
                assert bijective_count(field.q, s, z.is_zero()) == vector[int(z)]


class TestSignedDMod4Message:
    def test_even_d_names_both_routes(self, monkeypatch, f7):
        real = verify_module.cubic_data
        monkeypatch.setattr(verify_module, "cubic_data", lambda field: real(field)._replace(d=2))
        with pytest.raises(IntegrityError, match=r"cubic_data gives even d = 2 over F_7, but cube_class puts 2 in c[12]"):
            signed_d_mod4(f7, C1)
