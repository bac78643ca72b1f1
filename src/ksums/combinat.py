"""Exact combinatorial quantities: binomials, q-analogues, group orders.

Everything returns Python ints (arbitrary precision). Binomial coefficients
follow the convention C(n, k) = 0 for k < 0 or k > n, which the moment
recursions rely on when the exponent overshoots the code length. The orders
|GL(t,q)| and the q-binomials [n r]_q come as rows, each entry one big-int
step from the last (gl_orders, q_binomials), so orthogroup.group_counts
builds every order of O+(2n,q) in O(n) products; gl_order and q_binomial
read one entry, stopping there.
"""

import math
from itertools import islice

from ksums.errors import ConsistencyError


def binom(n: int, k: int) -> int:
    """C(n, k) with out-of-range arguments mapped to 0 (n must be >= 0)."""
    if n < 0:
        raise ValueError(f"binom: negative n = {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, min(k, n - k))


def lowest_terms(num: int, den: int) -> tuple:
    """The ratio num/den as the pair (num/g, den/g), g = gcd(num, den), for den > 0.

    Exact ratios (a Pless side 2^(k-h) P, the paper's constants, and the
    family cofactor that coset_codes.family_constants reduces by shifts) are
    such pairs of ints; den is 1 exactly when den divides num.
    """
    g = math.gcd(num, den)
    return num // g, den // g


def q_binomials(n: int, q: int):
    """Yield the Gaussian binomials [n r]_q for r = 0..n, each from the last.

    The ratio recurrence [n r]_q = [n r-1]_q (q^(n-r+1) - 1) / (q^r - 1)
    keeps one value at a time, so a caller that reads only up to r stops there.
    """
    value = 1
    yield value
    for r in range(1, n + 1):
        value, rem = divmod(value * (q ** (n - r + 1) - 1), q ** r - 1)
        if rem:
            raise ConsistencyError("q-binomial ratio step must be exact", n=n, r=r, q=q)
        yield value


def q_binomial(n: int, r: int, q: int) -> int:
    """Gaussian binomial [n r]_q, the number of r-subspaces of F_q^n; 0 unless 0 <= r <= n."""
    return next(islice(q_binomials(n, q), r, None)) if 0 <= r <= n else 0


def gl_orders(n: int, q: int):
    """Yield |GL(t, q)| = q^C(t,2) prod_(j=1..t) (q^j - 1) for t = 0..n: one running
    product, each step times q^(t-1) (q^t - 1)."""
    out = 1
    yield out
    for t in range(1, n + 1):
        out *= q ** (t - 1) * (q ** t - 1)
        yield out


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)|, the last of gl_orders(n, q)."""
    if n < 0:
        raise ValueError(f"gl_order: negative n = {n}")
    return next(islice(gl_orders(n, q), n, None))


def nonsingular_symmetric_count(r: int, q: int) -> int:
    """Number of nonsingular symmetric r x r matrices over F_q (q even).

    Empty-matrix convention: the count is 1 for r = 0.
    """
    if r < 0:
        raise ValueError(f"negative matrix size {r}")
    if r == 0:
        return 1
    if r % 2 == 0:
        out = q ** (r * (r + 2) // 4)
        top = r // 2
    else:
        out = q ** ((r * r - 1) // 4)
        top = (r + 1) // 2
    for j in range(1, top + 1):
        out *= q ** (2 * j - 1) - 1
    return out
