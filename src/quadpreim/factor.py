"""Integer factorization under an explicit effort budget.

The twelve smallest primes are divided out first, then Miller-Rabin and
Brent-cycle Pollard rho, under a step budget, split what is left.  Exceeding
the budget raises FactorBudgetExceeded so callers (the integral scaling of a
Weierstrass model) fail cleanly instead of hanging on a hard composite.
"""

from __future__ import annotations

import random
from math import gcd

DEFAULT_RHO_STEPS = 10 ** 7


class FactorBudgetExceeded(ArithmeticError):
    """Raised when the configured factorization effort is exhausted.

    Carries the factors found so far and the remaining unfactored cofactor.
    """

    def __init__(self, n: int, partial: dict, cofactor: int):
        self.n = n
        self.partial = dict(partial)
        self.cofactor = cofactor
        super().__init__(
            "factorization budget exceeded for %d (unfactored cofactor %d)"
            % (n, cofactor))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the 12 smallest prime bases; deterministic for all
    n < 3.3 * 10^24, far beyond anything factored here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def _pollard_brent(n: int, rng: random.Random,
                   max_steps: int) -> tuple[int | None, int]:
    """One Brent-cycle rho attempt on an odd composite n; returns a
    nontrivial factor (None if the attempt failed or the step budget ran
    out) and the steps taken."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        if steps > max_steps:
            return None, steps
        k = 0
        while k < r and g == 1:
            ys = y
            count = min(m, r - k)
            for _ in range(count):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += count
            g = gcd(q, n)
            k += m
            if steps > max_steps and g == 1:
                return None, steps
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            steps += 1
            if steps > max_steps:
                return None, steps
    return (g if g != n else None), steps


def _factor_into(n: int, factors: dict[int, int], rho_steps: int):
    original = n
    for p in _MR_BASES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return
    if is_probable_prime(n):
        factors[n] = factors.get(n, 0) + 1
        return

    # no prime below 41 divides what is left: rho sees odd composites only
    rng = random.Random(0xC0FFEE ^ n)
    budget = rho_steps
    stack = [n]
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = None
        while d is None and budget > 0:
            # charge the steps taken, so a quick split costs only those
            d, steps = _pollard_brent(m, rng, min(budget, 500000))
            budget -= steps
        if d is None:
            raise FactorBudgetExceeded(original, factors, m)
        stack.append(d)
        stack.append(m // d)


def factorize(n: int, rho_steps: int = DEFAULT_RHO_STEPS) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    Raises FactorBudgetExceeded when rho does not finish within rho_steps.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    factors: dict[int, int] = {}
    if n == 1:
        return factors
    _factor_into(n, factors, rho_steps)
    check = 1
    for p, e in factors.items():
        check *= p ** e
    if check != n:
        raise ArithmeticError("factorization of %d lost a piece" % n)
    return factors
