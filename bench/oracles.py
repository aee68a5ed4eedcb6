"""Expected values the benchmark checks the package's outputs against.

Nothing here imports kummerlat: each oracle is an independent source of
truth, either a table from the paper or a closed form from the literature.
"""

from __future__ import annotations

from math import gcd

# The paper's table of Lefschetz numbers on the Kummer fourfold (n = 3):
# (catalog type, variant, exact integer value).
CATALOG_GOLDEN: tuple[tuple[int, str, int], ...] = (
    (0, "id", 108), (0, "t_b", 27), (0, "-id", 60), (0, "-t_b", 60),
    (1, "h", 12), (1, "u=0", 12), (1, "u!=0", 3),
    (2, "h", 12), (2, "u=0", 12), (2, "u!=0", 3),
    (3, "h", 12), (3, "u=0", 12), (3, "u!=0", 3),
    (4, "h", 16), (4, "t_b", 16), (4, "-h", 16), (4, "-h,t_b", 16),
    (5, "h", 27), (5, "u=0,v in Delta6", 27), (5, "u=0,v notin Delta6", 0),
    (5, "u!=0,v in Delta6", 0), (5, "u!=0,v notin Delta6", 0),
    (5, "-h", 9), (5, "-h,t_b", 9),
    (6, "h", 9), (6, "t=0,u in Za", 9), (6, "t=0,u notin Za", 0), (6, "t!=0", 0),
    (6, "-h", 9), (6, "-h,t_b", 9),
    (7, "h", 36), (7, "b in Delta6xDelta6", 36), (7, "b notin Delta6xDelta6", 27),
    (7, "-h", 12), (7, "-h,t_b", 12),
    (8, "h", 13), (8, "h,t_b", 13), (8, "-h", 5), (8, "-h,t_b", 5),
)

# The (m, a) pairs the numeric constraints allow for order five isometries
# of the rank 23 lattice, in increasing order.
CANDIDATE_PAIRS = ((1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2), (4, 4), (5, 1), (5, 3))


def identity_value(n: int) -> int:
    """Euler number of K_{n-1}(A), n^3 sigma(n): the identity's Lefschetz number."""
    return n**3 * sum(d for d in range(1, n + 1) if n % d == 0)


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        for k, d in enumerate(den):
            num[i + k] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


def _symmetric_products(top: int) -> list[list[int]]:
    """Poincare polynomials in z of A^(a), a = 0..top, for an abelian surface A.

    Macdonald: sum_a p(A^(a)) t^a = (1 + z t)^4 (1 + z^3 t)^4 /
    ((1 - t) (1 - z^2 t)^6 (1 - z^4 t)).
    """
    series = [[1]] + [[0] for _ in range(top)]

    def shifted(poly, k):
        return [0] * k + poly

    def add(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]

    factors = ((1, 4, False), (3, 4, False), (0, 1, True), (2, 6, True), (4, 1, True))
    for k, power, inverse in factors:
        for _ in range(power):
            if inverse:  # times 1 / (1 - z^k t)
                for a in range(1, top + 1):
                    series[a] = add(series[a], shifted(series[a - 1], k))
            else:  # times (1 + z^k t)
                for a in range(top, 0, -1):
                    series[a] = add(series[a], shifted(series[a - 1], k))
    return series


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def kummer_betti(n: int) -> list[int]:
    """Betti numbers b_0..b_{4n-4} of the generalized Kummer variety K_{n-1}(A).

    Goettsche-Soergel (Math. Ann. 296, 1993): summing over partitions alpha
    of n with a_i parts of size i,
        p(K_{n-1}(A)) = sum_alpha gcd(alpha)^4 z^(2(n - l(alpha)))
                        prod_i p(A^(a_i)) / p(A).
    """
    sym = _symmetric_products(n)
    total = [0] * (4 * n - 3)
    for alpha in _partitions(n):
        mult: dict[int, int] = {}
        for part in alpha:
            mult[part] = mult.get(part, 0) + 1
        g = 0
        for part in mult:
            g = gcd(g, part)
        poly = [1]
        for a in mult.values():
            poly = _mul(poly, sym[a])
        poly = [0] * (2 * (n - len(alpha))) + _exact_div(poly, sym[1])
        for i, c in enumerate(poly):
            total[i] += g**4 * c
    return total


def identity_polynomial(n: int) -> list[int]:
    """Coefficients of q^0..q^(4n-4) of the identity's q-refined Lefschetz number.

    For the identity the q-refined number is the signed Poincare polynomial:
    the coefficient of q^i is (-1)^i b_i(K_{n-1}(A)).
    """
    return [(-1) ** i * b for i, b in enumerate(kummer_betti(n))]
