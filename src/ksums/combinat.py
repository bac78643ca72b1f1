"""Exact combinatorial quantities: binomials, q-analogues, group orders.

Everything returns Python ints (arbitrary precision). Binomial coefficients
follow the convention C(n, k) = 0 for k < 0 or k > n, which the moment
recursions rely on when the exponent overshoots the code length.
"""

import math


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


def q_binomial(n: int, r: int, q: int) -> int:
    """Gaussian binomial [n r]_q, the number of r-subspaces of F_q^n."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for j in range(r):
        num *= q ** (n - j) - 1
        den *= q ** (r - j) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"q_binomial({n},{r},{q}): non-exact division")
    return value


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| = q^C(n,2) * prod_{j=1}^{n} (q^j - 1)."""
    if n < 0:
        raise ValueError(f"gl_order: negative n = {n}")
    out = q ** binom(n, 2)
    for j in range(1, n + 1):
        out *= q ** j - 1
    return out


def q_pochhammer(x: int, q: int, n: int) -> int:
    """(x; q)_n = (1 - x)(1 - qx) ... (1 - q^(n-1) x) for integer x."""
    out = 1
    for j in range(n):
        out *= 1 - q ** j * x
    return out


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
