import sys
from math import gcd

import pytest

from diagcubic import (
    CubicClass,
    DomainError,
    EisensteinInt,
    IntegrityError,
    ResourceError,
    count_diagonal,
    cubic_data,
    make_field,
)
from diagcubic import constants as constants_module
from diagcubic import verify as verify_module
from diagcubic.constants import delta
from diagcubic.fields import FieldElement
from diagcubic.verify import SUPPORTED_FIELDS, cd_search, theta_sign_rule

# independently enumerated representations 4q = c^2 + 27 d^2 (see cd_search
# contract for the side conditions pinning the signs)
CD_EXPECTED = {
    4: (4, 0), 7: (1, 1), 13: (-5, 1), 16: (-8, 0), 19: (7, 1), 25: (10, 0),
    31: (4, 2), 37: (-11, 1), 43: (-8, 2), 49: (13, 1), 61: (1, 3), 64: (16, 0),
}


class TestCdSearch:
    @pytest.mark.parametrize("q", sorted(CD_EXPECTED))
    def test_known_pairs(self, q):
        p, _ = SUPPORTED_FIELDS[q]
        assert cd_search(q, p) == CD_EXPECTED[q]

    def test_coprimality_excludes_square_candidate(self):
        # at q = 49 the d = 0 candidate c = -14 is killed by gcd(c, 7) > 1
        assert cd_search(49, 7) == (13, 1)

    def test_rejects_bijective_regime(self):
        with pytest.raises(DomainError):
            cd_search(5, 5)


def _theta_and_m(field):
    """theta and M = G^3/q, as cubic_data computes them."""
    data = cubic_data(field)
    return data.theta, data.gauss_cubed_over_q


class TestThetaExact:
    def test_prime_fields(self, f31, f7):
        theta, m = _theta_and_m(f31)
        assert (theta, m) == (1, EisensteinInt(5, 6))
        theta, m = _theta_and_m(f7)
        assert (theta, m) == (-1, EisensteinInt(-1, -3))

    def test_even_degree_canonical_generator(self, f49):
        # canonical g = 2 + t has norm 5, giving J = 2 + 3w and theta = -1
        assert f49.g.norm() == 5
        theta, m = _theta_and_m(f49)
        assert (theta, m) == (-1, EisensteinInt(5, -3))
        assert m.real_doubled() == 13 and abs(m.b) == 3

    def test_even_degree_other_coset_generator(self):
        # a generator with norm 3 flips the character, hence theta and C1/C2
        field = make_field(7, 2, generator=(3, 1))
        assert field.g.norm() == 3
        theta, m = _theta_and_m(field)
        assert (theta, m) == (1, EisensteinInt(8, 3))

    def test_no_prime_cubic_character(self, f4):
        theta, m = _theta_and_m(f4)
        assert theta == 0
        assert m == EisensteinInt(2, 0)  # c/2 with c = 4
        assert m.norm() == 4


class TestThetaSignRule:
    def test_odd_degree(self):
        assert theta_sign_rule(1, 4, 2) == 1
        assert theta_sign_rule(1, 1, -1) == -1
        assert theta_sign_rule(3, 1, -1) == (EisensteinInt(-1, -3) ** 3).imag_sign()

    def test_even_degree_is_zero(self):
        assert theta_sign_rule(2, 4, 2) == 0
        assert theta_sign_rule(4, 1, 1) == 0

    def test_parity_violation(self):
        with pytest.raises(IntegrityError):
            theta_sign_rule(1, 2, 1)

    def test_theta_paper_is_the_rule_on_every_field_below_1e5(self):
        # cubic_data reads theta_paper off M = J^k rather than evaluating the
        # rule: the two must agree on every field make_field builds with
        # q <= 10^5 and q = 1 (mod 3); p = 2 (mod 3) forces even k
        from diagcubic.ntheory import primes_up_to

        bound = 10 ** 5
        odd = even = 0
        for p in primes_up_to(bound):
            q, k = p, 1
            while q <= bound:
                if q % 3 == 1:
                    data = cubic_data(make_field(p, k))
                    if k % 2 == 1:
                        assert data.theta_paper == theta_sign_rule(k, data.r1, data.r2) == data.theta, q
                        odd += 1
                    else:
                        assert data.theta_paper == 0, q
                        even += 1
                q, k = q * p, k + 1
        assert (odd, even) == (4791, 77)  # 4868 fields, as in test_exact_path_matches_search_widely


class TestDelta:
    def test_worked_values(self, f31):
        data = cubic_data(f31)
        assert delta(data, CubicClass.C1) == -1
        assert delta(data, CubicClass.C2) == 1

    def test_zero_when_d_vanishes(self, f4):
        data = cubic_data(f4)
        assert delta(data, CubicClass.C1) == 0
        assert delta(data, CubicClass.C2) == 0

    def test_undefined_for_cubes(self, f31):
        data = cubic_data(f31)
        with pytest.raises(DomainError):
            delta(data, CubicClass.C0)
        with pytest.raises(DomainError):
            delta(data, CubicClass.ZERO)


class TestCubicData:
    def test_f31_record(self, f31):
        data = cubic_data(f31)
        assert (data.q, data.p, data.k) == (31, 31, 1)
        assert (data.c, data.d, data.r1, data.r2) == (4, 2, 4, 2)
        assert data.theta == data.theta_paper == 1
        assert data.gauss_cubed_over_q == EisensteinInt(5, 6)

    def test_f4_record(self, f4):
        data = cubic_data(f4)
        assert (data.c, data.d) == (4, 0)
        assert data.r1 is None and data.r2 is None
        assert data.theta == data.theta_paper == 0

    def test_f49_record(self, f49):
        data = cubic_data(f49)
        assert (data.c, data.d) == (13, 1)
        assert (data.r1, data.r2) == (1, 1)  # from the induced generator norm(g) = 5
        assert data.theta == -1
        assert data.theta_paper == 0  # the parity rule, kept for comparison

    def test_rejects_bijective_regime(self):
        with pytest.raises(DomainError):
            cubic_data(make_field(5))

    def test_exact_path_matches_search_widely(self):
        # the differential test of the closed-form routes against the
        # Diophantine search they replaced: every q = p^k = 1 (mod 3) up to
        # 10^5, among them the p = 2 (mod 3) squares 4, 16, 25, 64, 121, 256,
        # 625, 1024, 5^6 and 11^4 that Stickelberger's M now serves
        from diagcubic.ntheory import primes_up_to

        bound = 10 ** 5
        seen = set()
        for p in primes_up_to(bound):
            q, k = p, 1
            while q <= bound:
                if q % 3 == 1:
                    data = cubic_data(make_field(p, k))
                    c, d = cd_search(q, p)
                    b = 3 * d * data.theta
                    assert (data.c, data.d) == (c, d), q
                    assert (data.theta == 0) == (d == 0), q
                    assert data.gauss_cubed_over_q == EisensteinInt((c + b) // 2, b), q
                    if k % 2 == 1:
                        assert data.theta == data.theta_paper
                    seen.add(q)
                q, k = q * p, k + 1
        assert {4, 16, 25, 64, 121, 256, 625, 1024, 5 ** 6, 11 ** 4} <= seen
        assert len(seen) == 4868  # the prime powers q <= 10^5 with q = 1 (mod 3)

    @pytest.mark.parametrize("q", sorted(SUPPORTED_FIELDS))
    def test_invariants(self, q):
        p, k = SUPPORTED_FIELDS[q]
        data = cubic_data(make_field(p, k))
        assert 4 * q == data.c ** 2 + 27 * data.d ** 2
        assert data.c % 3 == 1 and data.d >= 0
        assert (data.c - data.d) % 2 == 0
        assert (data.d == 0) == (data.theta == 0)
        assert (data.r1 is not None) == (p % 3 == 1)
        m = data.gauss_cubed_over_q
        assert m.norm() == q
        total = m + m.conjugate()
        assert (total.a, total.b) == (data.c, 0)
        assert m.real_doubled() == data.c and abs(m.b) == 3 * data.d
        if k % 2 == 1:
            assert data.theta == data.theta_paper
        if p % 3 == 1 and k % 2 == 0:
            assert data.theta != 0 and data.theta_paper == 0


class TestOneComputationPerCall:
    @pytest.mark.parametrize("p, k", [(31, 1), (7, 2), (13, 4), (2, 2), (2, 6), (19, 3), (1_000_000_000_039, 1)])
    def test_cubic_data_computes_each_route_once(self, monkeypatch, p, k):
        field = make_field(p, k)
        calls = {"jacobi_sum_cubic": 0, "prime_factors": 0, "norm": 0, "theta_sign_rule": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(constants_module, "jacobi_sum_cubic")
        # every module that binds prime_factors, so no import path escapes the count
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("diagcubic") and hasattr(module, "prime_factors"):
                counted(module, "prime_factors")
        counted(FieldElement, "norm")
        counted(verify_module, "theta_sign_rule")
        cubic_data(field)
        # the field already holds t, so no generator is proved and no norm taken
        # again; theta_paper is read off M, not re-raised by the parity rule
        assert calls == {"jacobi_sum_cubic": 1 if p % 3 == 1 else 0, "prime_factors": 0, "norm": 0,
                         "theta_sign_rule": 0}
        # the (c, d) search and the parity rule are witnesses only: verify and the tests run them
        assert not hasattr(constants_module, "cd_search")
        assert not hasattr(constants_module, "theta_sign_rule")


class TestGeneratorCoset:
    """A generator g^e with e = 2 (mod 3) swaps the classes C1 and C2."""

    @pytest.mark.parametrize("q", [q for q, (p, _) in sorted(SUPPORTED_FIELDS.items()) if p % 3 == 1])
    def test_other_coset_conjugates_constants(self, q):
        p, k = SUPPORTED_FIELDS[q]
        field = make_field(p, k)
        e = next(e for e in range(2, q, 3) if gcd(e, q - 1) == 1)
        other = make_field(p, k, field.modulus, (field.g ** e).coeffs)
        assert field.cube_class(other.g) is CubicClass.C2
        data, swapped = cubic_data(field), cubic_data(other)
        assert swapped.theta == -data.theta != 0
        assert swapped.gauss_cubed_over_q == data.gauss_cubed_over_q.conjugate()
        for s in range(1, 5):
            assert count_diagonal(swapped, s, CubicClass.C1) == count_diagonal(data, s, CubicClass.C2)
            assert count_diagonal(swapped, s, CubicClass.C2) == count_diagonal(data, s, CubicClass.C1)


class TestCdSearchCap:
    def test_boundary(self, monkeypatch):
        # q = 31 takes d = 0, 1, 2: isqrt(4 * 31 // 27) + 1 = 3 steps
        monkeypatch.setattr(verify_module, "_MAX_CD_SEARCH_LOOPS", 3)
        assert cd_search(31, 31) == (4, 2)
        monkeypatch.setattr(verify_module, "_MAX_CD_SEARCH_LOOPS", 2)
        with pytest.raises(ResourceError):
            cd_search(31, 31)

    def test_default_cap(self):
        with pytest.raises(ResourceError):
            cd_search(10_000_000_000_051, 10_000_000_000_051)  # about 1.2 * 10^6 steps

    def test_large_prime_field(self):
        # Cornacchia gives J; the witness needs 384,900 steps and agrees
        data = cubic_data(make_field(1_000_000_000_039))
        assert (data.c, data.d, data.r1, data.r2, data.theta) == (-320657, 379921, -320657, -379921, -1)
        assert cd_search(data.q, data.p) == (data.c, data.d)


class TestInvariantMessages:
    """Each invariant error names the route of M and both values compared."""

    @pytest.mark.parametrize("change, message", [
        ({"d": 1}, r"Stickelberger gives M = 2\+0\*w, but d = 1 and theta = 0 need B = theta \* 3d for q = 4"),
        # the sign of Stickelberger's M flipped: |M|^2 = q still holds
        ({"gauss_cubed_over_q": EisensteinInt(-2, 0), "c": -4},
         r"Stickelberger gives M = -2\+0\*w and c = -4 = 2 \(mod 3\), not 1, for q = 4"),
    ])
    def test_stickelberger_side(self, change, message):
        data = cubic_data(make_field(2, 2))._replace(**change)
        with pytest.raises(IntegrityError, match=message):
            constants_module._check_invariants(data)

    def test_real_part(self):
        data = cubic_data(make_field(7))._replace(c=4)
        with pytest.raises(IntegrityError, match=(
            r"the Jacobi sum gives M = -1-3\*w with M \+ conj\(M\) = 1\+0\*w, but c = 4 for q = 7"
        )):
            constants_module._check_invariants(data)

    def test_norm(self):
        # M = -1-3w moved to 0-1w keeps 2a - b = 1 = c but not |M|^2 = 7
        data = cubic_data(make_field(7))._replace(gauss_cubed_over_q=EisensteinInt(0, -1))
        with pytest.raises(IntegrityError, match=r"the Jacobi sum gives M = 0-1\*w with \|M\|\^2 = 1, but q = 7"):
            constants_module._check_invariants(data)

    def test_coprimality(self):
        # M = -7 has norm 49 and c = -14 = 1 (mod 3), but 7 divides c: the
        # d = 0 candidate that the side condition gcd(c, p) = 1 excludes
        data = cubic_data(make_field(7, 2))._replace(
            gauss_cubed_over_q=EisensteinInt(-7, 0), c=-14, d=0, theta=0,
        )
        with pytest.raises(IntegrityError, match=(
            r"the Jacobi sum gives M = -7\+0\*w and c = -14, which p = 7 divides, for q = 49"
        )):
            constants_module._check_invariants(data)
