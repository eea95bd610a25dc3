"""Primality, sieve tables, and the linear-form prime counters."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfnormal.errors import ResourceLimitError
from cfnormal.sieves import (SIEVE_LIMIT_MAX, build_tables, coprime_count,
                             get_tables, is_prime, mobius_sieve, phi_summatory,
                             pi_prime_joint, pi_prime_linear)


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def test_is_prime_small_range():
    for n in range(-3, 2000):
        assert is_prime(n) == _trial_division(n), n


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)                 # Mersenne prime
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 61 + 1)             # divisible by 3
    assert not is_prime(3215031751)              # strong pseudoprime to 2,3,5,7
    assert not is_prime(3825123056546413051)     # ... to the first nine primes
    assert is_prime(10 ** 18 + 9)


class TestTables:
    def test_against_brute_force(self):
        t = build_tables(300)
        for n in range(2, 301):
            assert bool(t.is_prime[n]) == _trial_division(n)
            assert t.phi[n] == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1)
            assert bool(t.is_squarefree[n]) == all(
                n % (p * p) != 0 for p in range(2, math.isqrt(n) + 1))
            assert t.omega[n] == sum(1 for p in range(2, n + 1)
                                     if n % p == 0 and _trial_division(p))

    def test_prime_count(self):
        isp = get_tables(10 ** 4).is_prime
        assert np.count_nonzero(isp[:10 ** 4 + 1]) == 1229
        assert np.count_nonzero(isp[:101]) == 25

    @pytest.mark.parametrize("limit", [2, 3, 4, 48, 49, 50, 961, 1000])
    def test_large_prime_factor_pass(self, limit):
        # limits at and around squares: the factor above sqrt(limit) is
        # added by its own pass, so the edges of that range matter
        t = build_tables(limit)
        for n in range(1, limit + 1):
            assert t.phi[n] == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1), (limit, n)
            assert t.omega[n] == sum(1 for p in range(2, n + 1)
                                     if n % p == 0 and _trial_division(p))

    def test_cache_grows(self):
        small = get_tables(50)
        big = get_tables(120)
        assert big.limit >= 120
        assert np.array_equal(big.is_prime[:51], get_tables(50).is_prime[:51])
        assert small.limit >= 50


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 48, 49, 50, 961, 1000, 65537])
def test_mobius_sieve_matches_the_tables(limit):
    # limits at and around squares, as for the large prime factor pass
    t = build_tables(limit)
    mu = np.where(t.is_squarefree, 1 - 2 * (t.omega.astype(np.int8) & 1), 0)
    got = mobius_sieve(limit)
    assert got.dtype == np.int8
    assert got.tolist() == mu.tolist()


def test_mobius_sieve_limits():
    with pytest.raises(ValueError):
        mobius_sieve(0)
    with pytest.raises(ResourceLimitError):
        mobius_sieve(SIEVE_LIMIT_MAX + 1)


def test_phi_summatory_oracles():
    assert phi_summatory(1) == 1
    assert phi_summatory(5) == 10          # 1+1+2+2+4
    assert phi_summatory(10) == 32
    with pytest.raises(ValueError):
        phi_summatory(0)


def test_phi_summatory_density():
    # sum phi(l) ~ (3/pi^2) m^2
    scaled = phi_summatory(10 ** 4) * math.pi ** 2 / (3.0 * 10 ** 8)
    assert 0.995 <= scaled <= 1.005


@given(st.integers(0, 400), st.integers(1, 400))
def test_coprime_count_brute(x, m):
    assert coprime_count(x, m) == sum(
        1 for k in range(1, x + 1) if math.gcd(k, m) == 1)


class TestPiPrime:
    def test_linear_oracle(self):
        assert pi_prime_linear(10, 2, 1) == 7

    def test_linear_brute(self):
        for q, a in ((1, 1), (2, 1), (3, 2), (4, 3), (6, 1), (5, -2)):
            for x in (0, 1, 17, 250):
                brute = sum(1 for ell in range(1, x + 1)
                            if _trial_division(ell * q + a))
                assert pi_prime_linear(x, q, a) == brute, (x, q, a)

    def test_linear_rejects_fixed_divisor(self):
        with pytest.raises(ValueError):
            pi_prime_linear(10, 4, 2)
        with pytest.raises(ValueError):
            pi_prime_linear(-1, 2, 1)
        with pytest.raises(ValueError):
            pi_prime_linear(10, 0, 1)

    def test_joint_brute(self):
        for (q, a, q2, a2) in ((2, 1, 4, 1), (1, 1, 2, 1), (3, 1, 2, -1)):
            for x in (0, 25, 300):
                brute = sum(1 for ell in range(1, x + 1)
                            if _trial_division(ell * q + a)
                            and _trial_division(ell * q2 + a2))
                assert pi_prime_joint(x, q, a, q2, a2) == brute

    def test_joint_rejects_proportional_forms(self):
        with pytest.raises(ValueError):
            pi_prime_joint(10, 2, 1, 4, 2)
