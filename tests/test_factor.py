"""The test oracles' prime factorization, `reference.factorize`, against
plain trial division (`reference_factorize`) on seeded inputs of each shape
the route treats differently: prime powers past the twelve small primes (one
Miller-Rabin test fails, rho splits them), semiprimes, numbers made only of
primes up to 47 (41, 43 and 47 are left to rho), numbers that take twenty and
more rho splits, and 1, primes and negative n.
"""

import random

import pytest

from reference import factorize, reference_factorize

SEED = 19191
print("test_factor random seed:", SEED)


def _prime_near(rng, centre, spread):
    n = rng.randint(centre - spread, centre + spread)
    while reference_factorize(n) != {n: 1}:
        n += 1
    return n


def _agrees(n):
    assert factorize(n) == reference_factorize(n), n


def test_prime_powers_near_a_thousand():
    rng = random.Random(SEED)
    for _ in range(200):
        _agrees(_prime_near(rng, 1000, 100) ** rng.randint(1, 6))


def test_prime_powers_near_a_million():
    # the reference walks up to p, so a few inputs suffice
    rng = random.Random(SEED + 1)
    for _ in range(8):
        _agrees(_prime_near(rng, 10 ** 6, 5000) ** rng.randint(2, 4))


def test_products_of_two_primes_near_1e5():
    rng = random.Random(SEED + 2)
    for _ in range(30):
        _agrees(_prime_near(rng, 10 ** 5, 5000)
                * _prime_near(rng, 10 ** 5, 5000))


def test_numbers_made_of_primes_up_to_47():
    rng = random.Random(SEED + 3)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for _ in range(200):
        n = 1
        for _ in range(rng.randint(1, 12)):
            n *= rng.choice(primes)
        _agrees(n)
    _agrees(41 * 43 * 47)
    _agrees(47 ** 9)


def test_many_prime_factors_past_37():
    rng = random.Random(SEED + 5)
    primes = [p for p in range(41, 200) if reference_factorize(p) == {p: 1}]
    _agrees(41 ** 22)
    _agrees((41 * 43) ** 12)
    for _ in range(5):
        n = 1
        for p in rng.sample(primes, 25):
            n *= p
        _agrees(n)


def test_one_primes_and_negative_n():
    rng = random.Random(SEED + 4)
    assert factorize(1) == factorize(-1) == {}
    for p in (2, 37, 41, 1009, 999983, 2 ** 61 - 1):
        assert factorize(p) == factorize(-p) == {p: 1}
    for _ in range(100):
        n = rng.randint(2, 10 ** 9)
        assert factorize(-n) == reference_factorize(-n), -n


def test_zero_raises():
    with pytest.raises(ValueError):
        factorize(0)

