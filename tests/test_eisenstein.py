from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from diagcubic import (
    DomainError,
    EisensteinInt,
    IntegrityError,
    ResourceError,
    eisenstein,
    verify,
)
from diagcubic.eisenstein import jacobi_sum_cubic, r_pair
from diagcubic.ntheory import primes_up_to
from diagcubic.verify import jacobi_sum_direct

ints = st.integers(-10 ** 6, 10 ** 6)
eis = st.builds(EisensteinInt, ints, ints)


class TestRingArithmetic:
    def test_examples(self):
        one_plus_w = EisensteinInt(1, 1)
        assert one_plus_w * one_plus_w == EisensteinInt(0, 1)
        assert EisensteinInt(5, 6).conjugate() == EisensteinInt(-1, -6)
        assert EisensteinInt(-1, -3) ** 2 == EisensteinInt(-8, -3)

    def test_norm_examples(self):
        assert EisensteinInt(5, 6).norm() == 31
        assert EisensteinInt(0, 1).norm() == 1
        assert EisensteinInt(-4, -3).norm() == 13

    @given(eis, eis, eis)
    def test_ring_laws(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == EisensteinInt(0, 0)

    @given(eis, eis)
    def test_conjugation_and_norm(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x * y).norm() == x.norm() * y.norm()
        product = x * x.conjugate()
        assert product == EisensteinInt(x.norm(), 0)
        assert x.norm() >= 0
        assert (x.norm() == 0) == (x == EisensteinInt(0, 0))

    @given(eis, st.integers(0, 12))
    def test_power_matches_repeated_product(self, x, e):
        expected = EisensteinInt(1, 0)
        for _ in range(e):
            expected = expected * x
        assert x ** e == expected

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            EisensteinInt(1, 1) ** -1

    @given(eis)
    def test_complex_embedding(self, x):
        # a + b*w = (2a - b)/2 + b*sqrt(3)/2 * i: 4|x|^2 = (2a - b)^2 + 3b^2, sgn Im x = sgn b
        assert x.real_doubled() ** 2 + 3 * x.b ** 2 == 4 * x.norm()
        assert x.imag_sign() == (x.b > 0) - (x.b < 0)

    def test_str_form(self):
        assert str(EisensteinInt(5, 6)) == "5+6*w"
        assert str(EisensteinInt(-1, -3)) == "-1-3*w"


class TestJacobiSum:
    def test_known_sums(self):
        # t = gen^((p-1)/3) for the generators 3, 3 and 2
        assert jacobi_sum_cubic(7, 2) == EisensteinInt(-1, -3)
        assert jacobi_sum_cubic(31, 25) == EisensteinInt(5, 6)
        assert jacobi_sum_cubic(13, 3) == EisensteinInt(-4, -3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_sum_cubic(5, 2)  # p = 2 (mod 3)
        with pytest.raises(DomainError):
            jacobi_sum_cubic(9, 2)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_bad_cube_root_refused(self, t):
        # t^2 + t + 1 is 1, 3 and 7 mod 31, never 0; t = 1 is a cube root of unity, but not a primitive one
        with pytest.raises(DomainError) as refused:
            jacobi_sum_cubic(31, t)
        assert str(refused.value) == f"{t} is not a primitive cube root of unity mod 31"

    def test_invariants_scan(self):
        # every prime p = 1 (mod 3) below 1000; the acceptance suite goes to 10^4
        for p in primes_up_to(1000):
            if p % 3 != 1:
                continue
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            t = _cube_root_of_unity(p, gen)
            j = jacobi_sum_cubic(p, t)
            assert j.norm() == p
            assert j.b % 3 == 0
            r1, r2 = r_pair(j, p)
            assert 4 * p == r1 * r1 + 27 * r2 * r2
            assert r1 % 3 == 1
            assert (r1 - r2) % 2 == 0
            # the defining congruence holds and rejects the flipped sign
            assert (9 * r2 - (2 * t + 1) * r1) % p == 0
            assert r2 != 0  # 4p = r1^2 would force p square
            assert (9 * -r2 - (2 * t + 1) * r1) % p != 0


def _is_primitive_root(g, p):
    from diagcubic.ntheory import prime_factors

    return all(pow(g, (p - 1) // ell, p) != 1 for ell in prime_factors(p - 1))


def _cube_root_of_unity(p, gen):
    """t = gen^((p-1)/3), which fixes the character with chi(gen) = w."""
    return pow(gen, (p - 1) // 3, p)


class TestRPair:
    def test_examples(self):
        assert r_pair(EisensteinInt(5, 6), 31) == (4, 2)
        assert r_pair(EisensteinInt(-1, -3), 7) == (1, -1)
        assert r_pair(EisensteinInt(-4, -3), 13) == (-5, -1)

    def test_integrity_errors(self):
        with pytest.raises(IntegrityError):
            r_pair(EisensteinInt(1, 1), 31)  # norm 1, not 31
        with pytest.raises(IntegrityError):
            r_pair(EisensteinInt(2, 1), 3)  # norm 3 but w-coefficient not divisible by 3


class TestCornacchiaRoute:
    """The O(log p) route against the O(p) direct sum it replaced."""

    def test_equals_direct_sum_and_conjugates_under_other_coset(self):
        # every prime p = 1 (mod 3) below 2 * 10^4 with its least primitive
        # root g and t = g^((p-1)/3), and with t^2, which sends chi to chi^2
        scanned = 0
        for p in primes_up_to(20_000):
            if p % 3 != 1:
                continue
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            t = _cube_root_of_unity(p, gen)
            direct = jacobi_sum_direct(p, gen)
            assert jacobi_sum_cubic(p, t) == direct, p
            assert jacobi_sum_cubic(p, t * t % p) == direct.conjugate(), p
            scanned += 1
        assert scanned == 1124

    def test_direct_sum_conjugates_under_other_coset(self):
        for p in (7, 13, 31, 61, 97, 409):
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            e = next(e for e in range(2, p, 3) if gcd(e, p - 1) == 1)
            assert jacobi_sum_direct(p, pow(gen, e, p)) == jacobi_sum_direct(p, gen).conjugate()

    def test_all_small_primes(self):
        # (|r1|, |r2|) is the one solution of x^2 + 27y^2 = 4p for p = 1 (mod 3); other p have none
        for p in primes_up_to(5_000):
            brute = [(x, y) for y in range(isqrt(4 * p // 27) + 1)
                     for x in [isqrt(4 * p - 27 * y * y)] if x * x + 27 * y * y == 4 * p]
            if p % 3 == 1:
                gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
                r1, r2 = r_pair(jacobi_sum_cubic(p, _cube_root_of_unity(p, gen)), p)
                assert brute == [(abs(r1), abs(r2))], p
            else:
                assert brute == [], p
                with pytest.raises(DomainError):
                    jacobi_sum_cubic(p, 2)

    def test_large_prime(self):
        j = jacobi_sum_cubic(1_000_000_000_039, _cube_root_of_unity(1_000_000_000_039, 3))
        assert j == EisensteinInt(-730210, -1139763)
        assert r_pair(j, 1_000_000_000_039) == (-320657, -379921)

    @pytest.mark.parametrize("p, gen, pair", [
        (2**61 - 1, 37, (3010608196, -76886238)),
        (3 * 2**30 + 1, 5, (-98303, -10923)),
        (1_000_000_000_000_012_003, 3, (1993473928, -31068442)),
        (1_000_000_000_000_000_000_003_459, 3, (-1034370442256, 329425863530)),
        (3_000_000_000_000_000_000_005_599, 3, (-1808327679647, 568622474609)),
    ])
    def test_large_prime_r_pairs(self, p, gen, pair):
        # recorded while the root of -27 was found by Tonelli-Shanks; test_large_prime pins p = 10^12 + 39
        assert r_pair(jacobi_sum_cubic(p, _cube_root_of_unity(p, gen)), p) == pair

    def test_domain_errors_at_large_p(self):
        with pytest.raises(DomainError):
            jacobi_sum_cubic(1_000_000_000_037, 2)  # composite
        with pytest.raises(DomainError):
            jacobi_sum_cubic(1_000_000_000_061, 2)  # p = 2 (mod 3)
        with pytest.raises(DomainError, match=r"^4 is not a primitive cube root of unity mod 1000000000039$"):
            jacobi_sum_cubic(1_000_000_000_039, 4)

    def test_direct_sum_refuses_large_p(self):
        with pytest.raises(ResourceError):
            jacobi_sum_direct(10_000_141, 2)
        with pytest.raises(ResourceError):
            jacobi_sum_direct(1_000_000_000_039, 3)

    @pytest.mark.parametrize("solution", [None, (4, 4), (5, 1), (4, 33)])
    def test_integrity_errors(self, monkeypatch, solution):
        # p = 31, t = 25 = 3^10: the true solution is (4, 2) with r2 = +2;
        # (4, 4) and (5, 1) meet the congruence with neither sign, (4, 33)
        # meets it but not the norm
        assert jacobi_sum_cubic(31, 25) == EisensteinInt(5, 6)
        monkeypatch.setattr(eisenstein, "_cornacchia", lambda p, root: solution)
        with pytest.raises(IntegrityError):
            jacobi_sum_cubic(31, 25)

    def test_jacobi_scan_names_both_routes_on_disagreement(self, monkeypatch):
        real = verify.jacobi_sum_cubic

        def conjugated_at_31(p, t):
            j = real(p, t)
            return j.conjugate() if p == 31 else j

        monkeypatch.setattr(verify, "jacobi_sum_cubic", conjugated_at_31)
        scan = [c for c in verify.check_constants_integrity(jacobi_bound=100) if c.name == "jacobi-scan"][0]
        assert scan.status == "fail"
        (p, message), = scan.observed
        assert p == 31
        assert "Cornacchia route gives -1-6*w" in message and "direct sum gives 5+6*w" in message


def test_jacobi_scan_retests_no_prime(monkeypatch):
    # primes_up_to sieved p and _least_primitive_root proved gen: the scan
    # calls the witness's core, which tests neither again
    calls = []
    monkeypatch.setattr(verify, "is_prime", lambda n: calls.append(n) or True)
    scan = [c for c in verify.check_constants_integrity(jacobi_bound=1000) if c.name == "jacobi-scan"][0]
    assert scan.status == "pass" and scan.observed == "80 primes verified"
    assert calls == []


def test_jacobi_scan_factors_each_p_minus_1_once(monkeypatch):
    # _least_primitive_root factors p - 1 before its candidate loop, not
    # once per candidate g
    factored = []
    original = verify.prime_factors
    monkeypatch.setattr(verify, "prime_factors", lambda n: factored.append(n) or original(n))
    scan = [c for c in verify.check_constants_integrity() if c.name == "jacobi-scan"][0]
    assert scan.status == "pass" and scan.observed == "611 primes verified"
    assert len(factored) == 611 and factored == sorted(set(factored))


def test_jacobi_bound_above_the_cap_refused_before_the_sieve(monkeypatch):
    sieved = []
    monkeypatch.setattr(verify, "primes_up_to", lambda n: sieved.append(n) or [])
    with pytest.raises(ResourceError) as refused:
        verify.check_constants_integrity(jacobi_bound=2 * 10**7)
    assert str(refused.value) == (
        "a Jacobi scan to 20000000 needs direct sums above the cap of p <= 10000000"
    )
    assert sieved == []
    verify.check_constants_integrity(jacobi_bound=10**7)  # the cap itself reaches the sieve
    assert sieved == [10**7]


def _jacobi_sum_walk(p, gen):
    """The direct sum by the full generator walk it had before the half walk:
    ind(x) mod 3 for x = gen^j, three steps at a time, then the bytewise tally."""
    index = bytearray(p)
    gen3 = pow(gen, 3, p)
    x = 1
    for _ in range((p - 1) // 3):
        y = x * gen % p
        index[y] = 1
        index[y * gen % p] = 2
        x = x * gen3 % p
    head = index[2:]
    total = int.from_bytes(head, "little") + int.from_bytes(head[::-1], "little")
    sums = total.to_bytes(p - 2, "little")
    n0 = sums.count(0) + sums.count(3)
    n1 = sums.count(1) + sums.count(4)
    n2 = sums.count(2)
    return EisensteinInt(n0 - n2, n1 - n2)


def _other_coset_generator(p, gen):
    """gen^e with e = 2 (mod 3) and gcd(e, p - 1) = 1, which sends chi to chi^2."""
    return pow(gen, next(e for e in range(2, p, 3) if gcd(e, p - 1) == 1), p)


class TestHalfWalk:
    """The half walk of jacobi_sum_direct against the full generator walk it
    replaced."""

    def test_equals_full_walk_below_2e4(self):
        scanned = 0
        for p in primes_up_to(20_000):
            if p % 3 != 1:
                continue
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            for g in (gen, _other_coset_generator(p, gen)):
                assert jacobi_sum_direct(p, g) == _jacobi_sum_walk(p, g), (p, g)
            scanned += 1
        assert scanned == 1124

    @pytest.mark.parametrize("p, k", [(7, 2), (31, 3), (307, 5), (643, 7), (5113, 11)])
    def test_least_non_cube(self, p, k):
        # the class of the least non-cube k is moved by k strided slice copies
        e = (p - 1) // 3
        assert next(x for x in range(2, p) if pow(x, e, p) != 1) == k
        generators = [g for g in range(2, p) if _is_primitive_root(g, p)][:20]
        assert {pow(g, e, p) for g in generators} == {pow(k, e, p), pow(k, 2 * e, p)}
        for g in generators:
            assert jacobi_sum_direct(p, g) == _jacobi_sum_walk(p, g), (p, g)

    def test_middle_point_in_each_class(self):
        # x = (p + 1)/2 = 1 - x is its own partner, tallied once; across these
        # (p, gen) it lies in each cubic class (over F_31, 2 and 1/2 are cubes)
        classes = set()
        for p in (7, 13, 19, 31):
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            for g in (gen, _other_coset_generator(p, gen)):
                assert jacobi_sum_direct(p, g) == _jacobi_sum_walk(p, g), (p, g)
                e = (p - 1) // 3
                t = pow(g, e, p)
                classes.add({1: 0, t: 1, t * t % p: 2}[pow((p + 1) // 2, e, p)])
        assert classes == {0, 1, 2}

    @pytest.mark.parametrize("p, gen, error, message", [
        (10_000_141, 2, ResourceError,
         "the direct cubic Jacobi sum over F_10000141 needs a table of 10000141 entries, above the cap of p <= 10000000"),
        (91, 2, DomainError, "91 is not prime"),
        (11, 2, DomainError, "no cubic character mod 11: p = 2 (mod 3)"),
        (31, 2, DomainError, "2 does not generate the units mod 31"),
        (31, 0, DomainError, "0 is not a unit mod 31"),
    ])
    def test_refusals_unchanged(self, p, gen, error, message):
        with pytest.raises(error) as refused:
            jacobi_sum_direct(p, gen)
        assert str(refused.value) == message

    def test_near_the_cap(self):
        p = 9_999_991
        gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
        assert jacobi_sum_direct(p, gen) == jacobi_sum_cubic(p, _cube_root_of_unity(p, gen))


def _jacobi_sum_bytes(p, gen):
    """The direct sum by the byte tally it had before the bitset tally: the
    whole table of ind(x) mod 3 over F_p, each pair {x, 1 - x} tallied once."""
    # cube[x] = 1 iff x is a nonzero cube: gen^(3j) for j < n/2, n = (p - 1)/3,
    # then their negatives gen^(3j + 3n/2), OR-ed in as the reversed table
    n = (p - 1) // 3
    cube = bytearray(p)
    gen3 = pow(gen, 3, p)
    x = 1
    for _ in range(n // 2):
        cube[x] = 1
        x = x * gen3 % p
    cube[1:] = (
        int.from_bytes(cube[1:], "little") | int.from_bytes(cube[:0:-1], "little")
    ).to_bytes(p - 1, "little")

    # moved[k*x mod p] = cube[x] marks class e of the least non-cube k: for
    # each j < k, the x in [ceil(j*p/k), ceil((j+1)*p/k)) go to the stride-k
    # run k*x - j*p
    k = cube.index(0, 1)
    e = 1 if pow(k, n, p) == pow(gen, n, p) else 2
    moved = bytearray(p)
    for j in range(k):
        lo, hi = -(-j * p // k), -(-(j + 1) * p // k)
        moved[k * lo - j * p::k] = cube[lo:hi]
    # cube + 2*moved is 1 on cubes, 2 on class e and 0 on the third class
    total = int.from_bytes(cube, "little") + 2 * int.from_bytes(moved, "little")
    del cube, moved  # free each table once used: at p near the cap each is about 10 MB
    index = total.to_bytes(p, "little").translate(bytes.maketrans(b"\0\1\2", bytes((3 - e, 0, e))))
    del total

    # chi(x) * chi(1-x) = w^(ind(x) + ind(1-x)); tally the three powers of w.
    # x and 1 - x = p + 1 - x give the same term, so the pairs with
    # x = 2 .. m - 1, m = (p + 1)/2, are tallied once and counted twice; their
    # partners p - 1 .. m + 1 are the top of the table reversed.  Adding the
    # two byte strings as integers adds them bytewise, since no byte sum
    # exceeds 4.  The middle point m = 1 - m is its own partner.
    m = (p + 1) // 2
    total = int.from_bytes(index[2:m], "little") + int.from_bytes(index[:m:-1], "little")
    sums = total.to_bytes(m - 2, "little")
    tally = [0, 2 * (sums.count(1) + sums.count(4)), 2 * sums.count(2)]
    tally[2 * index[m] % 3] += 1
    del index
    n1, n2 = tally[1], tally[2]
    n0 = (p - 2) - n1 - n2
    # n0 + n1*w + n2*w^2 with w^2 = -1 - w
    j_sum = EisensteinInt(n0 - n2, n1 - n2)
    return j_sum


class TestBitsetTally:
    """The folded bitset tally of jacobi_sum_direct against the byte tally it
    replaced."""

    def test_equals_byte_tally_below_2e4(self):
        scanned = 0
        for p in primes_up_to(20_000):
            if p % 3 != 1:
                continue
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            for g in (gen, _other_coset_generator(p, gen)):
                assert jacobi_sum_direct(p, g) == _jacobi_sum_bytes(p, g), (p, g)
            scanned += 1
        assert scanned == 1124

    @pytest.mark.parametrize("p, k", [(7, 2), (31, 3), (307, 5), (643, 7), (5113, 11)])
    def test_least_non_cube(self, p, k):
        # k strided slices fold class e into [1, (p - 1)/2], rising then falling
        assert next(x for x in range(2, p) if pow(x, (p - 1) // 3, p) != 1) == k
        for g in [g for g in range(2, p) if _is_primitive_root(g, p)][:20]:
            assert jacobi_sum_direct(p, g) == _jacobi_sum_bytes(p, g), (p, g)

    def test_near_the_cap(self):
        p = 9_999_991
        gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
        assert jacobi_sum_direct(p, gen) == _jacobi_sum_bytes(p, gen)


class TestDirectSumDefinition:
    """The direct sum against its definition, independent of the Cornacchia
    route and of the witness's discrete-log walk and tally."""

    def test_equals_definition_below_3000(self):
        scanned = 0
        for p in primes_up_to(3000):
            if p % 3 != 1:
                continue
            gen = next(g for g in range(2, p) if _is_primitive_root(g, p))
            e = (p - 1) // 3
            # chi(x) = w^i where x^((p-1)/3) = t^i, t = gen^((p-1)/3)
            t = pow(gen, e, p)
            power_of_t = {1: 0, t: 1, t * t % p: 2}
            ind = [None] + [power_of_t[pow(x, e, p)] for x in range(1, p)]
            terms = [0, 0, 0]  # terms[i] = number of x with chi(x) * chi(1 - x) = w^i
            for x in range(2, p):
                terms[(ind[x] + ind[1 - x + p]) % 3] += 1
            total = sum((n * eisenstein.OMEGA ** i for i, n in enumerate(terms)), EisensteinInt(0, 0))
            assert jacobi_sum_direct(p, gen) == total, p
            scanned += 1
        assert scanned == 207
