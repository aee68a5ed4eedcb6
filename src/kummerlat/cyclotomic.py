"""Number theory on one trial-division factorization.

``factorize`` gives {p: v}, and ``moebius`` and ``is_prime`` read it.  The
Lefschetz engine inverts its subgroup counts over the divisors of the
order with ``moebius``, the isometry layer checks the order with
``is_prime``, and the finite quadratic form search splits groups into
p-primary parts with ``factorize``.
"""

from __future__ import annotations


def factorize(n: int) -> dict[int, int]:
    """{p: v} with n = prod p^v over the primes p | n, in increasing p, for n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    exponents = factorize(n).values()
    return 0 if any(v > 1 for v in exponents) else (-1) ** len(exponents)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}
