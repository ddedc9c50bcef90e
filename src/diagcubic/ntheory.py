"""Integer number-theory helpers: primality, factoring and the sieve."""

from functools import lru_cache

from .errors import ResourceError

#: The first 13 primes, the Miller-Rabin bases.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: (psi, j): the first j bases decide every n < psi, the least strong
#: pseudoprime to all of them (Jaeschke 1993; Jiang and Deng 2014 for j = 9;
#: Sorenson and Webster 2015 for j = 12, 13).  The last psi is the limit of
#: the test.
_MILLER_RABIN_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MILLER_RABIN_LIMIT = _MILLER_RABIN_BOUNDS[-1][0]

#: Largest trial divisor prime_factors tries while the cofactor is not known prime.
_MAX_TRIAL_DIVISOR = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality over the fewest of the first 13
    prime bases that the bounds in ``_MILLER_RABIN_BOUNDS`` allow for n.

    n at or above 3.317 * 10^24 with no prime factor up to 41, where the 13
    bases are no longer known to suffice, is refused with a ResourceError.
    """
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    if n >= _MILLER_RABIN_LIMIT:
        raise ResourceError(
            f"primality of {n} is not decided deterministically above {_MILLER_RABIN_LIMIT}"
        )
    bases = next(j for psi, j in _MILLER_RABIN_BOUNDS if n < psi)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES[:bases]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1024)  # a Jacobi scan to 10^4 factors 611 values of p - 1
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending.

    Trial division stops as soon as the cofactor is prime.  A composite
    cofactor, or one whose primality :func:`is_prime` does not decide, is
    refused with a ResourceError once the divisor passes ``_MAX_TRIAL_DIVISOR``.
    """
    out = []
    m = n  # the cofactor left after dividing out every prime found
    pending = _not_known_prime(m)
    f = 2
    while pending:
        if f > _MAX_TRIAL_DIVISOR:
            raise ResourceError(
                f"factoring {n} needs trial divisors above {_MAX_TRIAL_DIVISOR}: "
                f"the cofactor {m} {pending}"
            )
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
            pending = _not_known_prime(m)
        f += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def _not_known_prime(m: int) -> str:
    """Why trial division must go on past m: "" for 1 or a prime."""
    try:
        return "is composite" if m > 1 and not is_prime(m) else ""
    except ResourceError:
        return f"is above {_MILLER_RABIN_LIMIT}, where primality is not decided"


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]
