"""Sieved arithmetic tables and prime counting along linear forms."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ResourceLimitError

SIEVE_LIMIT_MAX = 10 ** 8

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic Miller-Rabin range")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class ArithTables:
    """Primality, totient, squarefree and distinct-prime-count tables on 0..limit."""

    limit: int
    is_prime: np.ndarray
    phi: np.ndarray
    is_squarefree: np.ndarray
    omega: np.ndarray


#: entries per pass when the factor above sqrt(limit) is folded in
_COFACTOR_CHUNK = 1 << 16


def check_sieve_limit(limit: int) -> None:
    """Refuse a limit below 1 (ValueError) or above SIEVE_LIMIT_MAX
    (ResourceLimitError): the one check before a sieve, a table or a member
    row is sized from it."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > SIEVE_LIMIT_MAX:
        raise ResourceLimitError(f"sieve limit {limit} exceeds {SIEVE_LIMIT_MAX}")


def prime_sieve(limit: int) -> np.ndarray:
    """is_prime on 0..limit (inclusive), by the sieve of Eratosthenes.

    A limit above SIEVE_LIMIT_MAX is refused before anything is allocated.
    """
    check_sieve_limit(limit)
    isp = np.ones(limit + 1, dtype=bool)
    isp[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if isp[p]:
            isp[p * p::p] = False
    return isp


def mobius_sieve(limit: int) -> np.ndarray:
    """mu on 0..limit (inclusive) as int8, with mu(0) = 0, from the primes
    p <= sqrt(limit) only.

    Each p negates mu on its multiples and zeroes it on the multiples of
    p^2, and an int32 array keeps the product of the small primes found.
    A squarefree n whose product falls short of n has one prime factor
    above sqrt(limit), and a chunked pass flips its sign.  A limit above
    SIEVE_LIMIT_MAX is refused before anything is allocated.
    """
    check_sieve_limit(limit)
    n = limit + 1
    mob = np.ones(n, dtype=np.int8)
    product = np.ones(n, dtype=np.int32)
    for p in np.flatnonzero(prime_sieve(math.isqrt(limit))).tolist():
        # in-place on views, as build_tables does
        view = mob[p::p]
        np.negative(view, out=view)
        mob[p * p::p * p] = 0
        view = product[p::p]
        view *= p
    for lo in range(0, n, _COFACTOR_CHUNK):
        hi = min(lo + _COFACTOR_CHUNK, n)
        view = mob[lo:hi]
        np.negative(view, out=view,
                    where=product[lo:hi] != np.arange(lo, hi, dtype=np.int32))
    mob[0] = 0
    return mob


def build_tables(limit: int) -> ArithTables:
    """Sieve all four tables up to limit (inclusive).

    phi and omega loop over the primes p <= sqrt(limit) only, dividing each
    p out of an int32 cofactor array.  What is left of the cofactor is 1 or
    the one prime factor above sqrt(limit) that a number can have, and one
    chunked pass folds that factor in.  phi is int32: phi(n) <= limit.
    """
    isp = prime_sieve(limit)
    n = limit + 1
    root = math.isqrt(limit)
    sf = np.ones(n, dtype=bool)
    sf[0] = False
    phi = np.arange(n, dtype=np.int32)
    omega = np.zeros(n, dtype=np.int8)
    cofactor = np.arange(n, dtype=np.int32)
    for p in np.nonzero(isp[:root + 1])[0].tolist():
        sf[p * p::p * p] = False
        # in-place on views: phi of every multiple of p is still divisible by p
        view = phi[p::p]
        view //= p
        view *= p - 1
        view = omega[p::p]
        view += 1
        power = p
        while power <= limit:
            view = cofactor[power::power]
            view //= p
            power *= p
    for lo in range(0, n, _COFACTOR_CHUNK):
        big = np.nonzero(cofactor[lo:lo + _COFACTOR_CHUNK] > 1)[0] + lo
        q = cofactor[big]
        phi[big] = phi[big] // q * (q - 1)
        omega[big] += 1

    return ArithTables(limit=limit, is_prime=isp, phi=phi,
                       is_squarefree=sf, omega=omega)


_CACHED: Optional[ArithTables] = None


def get_tables(limit: int) -> ArithTables:
    """Shared tables covering at least 0..limit, grown geometrically."""
    global _CACHED
    if _CACHED is None or _CACHED.limit < limit:
        target = max(limit, 1024)
        if _CACHED is not None:
            target = max(target, min(2 * _CACHED.limit, SIEVE_LIMIT_MAX))
        _CACHED = build_tables(target)
    return _CACHED


def phi_summatory(m: int) -> int:
    """Phi(m) = sum of phi(n) for 1 <= n <= m, over the shared tables."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return int(get_tables(m).phi[1:m + 1].sum())


def factorize_distinct(m: int) -> list[int]:
    """Distinct prime factors of m >= 1 by trial division."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return out


def coprime_count(x: int, m: int) -> int:
    """#{1 <= k <= x : gcd(k, m) = 1} by inclusion-exclusion over primes of m.

    Exact for any x >= 0; the error term relative to x * phi(m)/m is bounded
    by the number of squarefree divisors of m.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    ps = factorize_distinct(m)
    return sum((-1) ** r * (x // math.prod(c))
               for r in range(len(ps) + 1)
               for c in itertools.combinations(ps, r))


def _count_prime_forms(x: int, forms: Sequence[tuple[int, int]]) -> int:
    """#{1 <= l <= x : l*q + a prime for every form (q, a)}."""
    return sum(1 for ell in range(1, x + 1)
               if all(is_prime(ell * q + a) for q, a in forms))


def pi_prime_linear(x: int, q: int, a: int) -> int:
    """#{1 <= l <= x : l*q + a prime}.  Requires gcd(q, a) = 1."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(q, a) != 1:
        raise ValueError(f"gcd({q}, {a}) != 1: the progression carries a fixed divisor")
    return _count_prime_forms(x, ((q, a),))


def pi_prime_joint(x: int, q: int, a: int, q2: int, a2: int) -> int:
    """#{1 <= l <= x : l*q + a and l*q2 + a2 both prime}.

    Requires gcd(q, a) = gcd(q2, a2) = 1 and a*q2 - q*a2 != 0, i.e. the two
    forms are not proportional.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if q < 1 or q2 < 1:
        raise ValueError("q and q2 must be >= 1")
    if math.gcd(q, a) != 1 or math.gcd(q2, a2) != 1:
        raise ValueError("each form needs gcd(q, a) = 1")
    if a * q2 - q * a2 == 0:
        raise ValueError("degenerate pair: a*q2 - q*a2 = 0")
    return _count_prime_forms(x, ((q, a), (q2, a2)))
