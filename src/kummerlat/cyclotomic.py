"""Number theory helpers: the Moebius function and a primality test.

The Lefschetz engine inverts its subgroup counts over the divisors of the
order with ``moebius``; the isometry layer checks the order with
``is_prime``.
"""

from __future__ import annotations


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True
