from math import prod

import pytest

from diagcubic import ResourceError
from diagcubic import ntheory
from diagcubic.ntheory import is_prime, prime_factors, primes_up_to


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _strong_probable_prime(n, a):
    """Whether odd n > 2 passes the Miller-Rabin round to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_13_bases(n):
    """The test is_prime ran before it chose its bases by the size of n:
    every one of the first 13 prime bases, whatever n."""
    if n < 2:
        return False
    for a in ntheory._MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    return all(_strong_probable_prime(n, a) for a in ntheory._MILLER_RABIN_BASES)


class TestIsPrime:
    def test_matches_sieve_below_1e6(self):
        assert [n for n in range(10**6) if is_prime(n)] == primes_up_to(10**6)

    @pytest.mark.parametrize("psi, bases", ntheory._MILLER_RABIN_BOUNDS)
    def test_bounds_are_strong_pseudoprimes(self, psi, bases):
        # psi is composite but fools every base of its row, so those bases
        # decide n only below psi, and psi itself needs the next row's
        first = ntheory._MILLER_RABIN_BASES[:bases]
        assert psi % 2 and all(psi % a for a in first)
        assert all(_strong_probable_prime(psi, a) for a in first)
        assert not all(_strong_probable_prime(psi, a) for a in range(2, 100))  # a witness: psi is composite
        if psi < ntheory._MILLER_RABIN_LIMIT:
            assert not _is_prime_13_bases(psi)

    @pytest.mark.parametrize("psi, bases", ntheory._MILLER_RABIN_BOUNDS)
    def test_agrees_with_13_bases_at_each_threshold(self, psi, bases):
        if psi < ntheory._MILLER_RABIN_LIMIT:
            assert not is_prime(psi)
        for n in range(psi - 200, min(psi + 200, ntheory._MILLER_RABIN_LIMIT)):
            assert is_prime(n) == _is_prime_13_bases(n), n

    def test_matches_trial_division_below_2e5(self):
        assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if _trial_division(n)]

    @pytest.mark.parametrize("n", [
        561, 41041,                # Carmichael numbers
        3215031751,                # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,       # strong pseudoprime to every prime base up to 23
    ])
    def test_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes(self):
        for p in (1_000_003, 1_000_000_000_039, 1_000_000_000_061, 2**61 - 1):
            assert is_prime(p)
        assert not is_prime((2**61 - 1) * 1_000_003)

    def test_refuses_beyond_deterministic_range(self):
        limit = ntheory._MILLER_RABIN_LIMIT
        assert not is_prime(limit - 1)  # even
        # the small-prime divisions come before the refusal
        assert not is_prime(2 * limit) and not is_prime(41 * limit)
        with pytest.raises(ResourceError, match=f"^primality of {limit} is not decided deterministically"):
            is_prime(limit)


class TestPrimeFactors:
    @pytest.mark.parametrize("n", [1, 2, 12, 97, 1000002, 1000000000038, 2**64 - 1, 2 * 3 * 999983 ** 2, 7**30 - 1])
    def test_factorisation(self, n):
        factors = prime_factors(n)
        assert list(factors) == sorted(set(factors))
        assert all(is_prime(f) for f in factors)
        m = n
        for f in factors:
            while m % f == 0:
                m //= f
        assert m == 1

    def test_refusal_names_the_cofactor(self):
        # 1000003^5 - 1 = 66 * 45481 * 166667 * m: is_prime cannot decide the cofactor left
        # after 2, 3 and 11, so division goes on, and the composite m outlasts the divisors
        m = 1998862662058682131
        assert 66 * 45481 * 166667 * m == 1000003**5 - 1
        with pytest.raises(ResourceError, match=f"the cofactor {m} is composite$"):
            prime_factors(1000003**5 - 1)

    def test_walks_past_an_undecided_cofactor(self):
        # once 2, 3, 7, 11 and 31 are divided out of 13^30 - 1, and again after 61, the
        # cofactor is above the Miller-Rabin limit with no prime factor up to 41
        assert prime_factors(13**30 - 1) == (2, 3, 7, 11, 31, 61, 157, 2411, 4651, 30941, 161971, 28325071)

    def test_refuses_an_undecided_cofactor_beyond_bound(self):
        # 1000003 * 1000033 * (2^89 - 1): the cofactor stays above the Miller-Rabin limit
        n = 1000003 * 1000033 * (2**89 - 1)
        with pytest.raises(ResourceError, match=f"the cofactor {n} is above .*, where primality is not decided$"):
            prime_factors(n)

    def test_stops_at_a_prime_cofactor(self):
        # the cofactor 2^61 - 1 is prime: no trial division up to its square root
        assert prime_factors(6 * (2**61 - 1)) == (2, 3, 2**61 - 1)

    def test_memo_is_bounded(self):
        # finite for a long-lived process, and large enough to keep the 611
        # values of p - 1 of a Jacobi scan to 10^4 from one report to the next
        assert 611 <= prime_factors.cache_info().maxsize < 10**4

    def test_refuses_composite_cofactor_beyond_bound(self, monkeypatch):
        with pytest.raises(ResourceError):
            prime_factors(2 * 1000003 * 1000033)
        # boundary: the divisor 1009 is tried at the bound and not above it
        monkeypatch.setattr(ntheory, "_MAX_TRIAL_DIVISOR", 1009)
        assert prime_factors.__wrapped__(1009 * 1013 * 2) == (2, 1009, 1013)
        monkeypatch.setattr(ntheory, "_MAX_TRIAL_DIVISOR", 1008)
        with pytest.raises(ResourceError):
            prime_factors.__wrapped__(1009 * 1013 * 2)
