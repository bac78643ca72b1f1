"""Recursive generation of Kloosterman power moments from code weight data.

Writing A, B for a family's (scale, cofactor) and C_j for its weight
distribution, the power-moment identity applied to the q-codeword dual code
has left side sum_a w(a)^h with the dual weights w(a) affine in K(lambda;a)
(codim 1) or in K(lambda;a)^2 (codim 2). Expanding that side binomially and
separating its l = h term yields, after multiplying through by (-2/A)^h,

    MK^h = sum_(l<h) (-1)^(h+l+1) C(h,l) B^(h-l) MK^l
           + q A^(-h) sum_j (-1)^(h+j) C_j sum_t t! S(h,t) 2^(h-t) C(N-j, N-t)

seeded by MK^0 = q - 1, with j up to min(N, h) and t from j to h. The codim-2
families produce the same shape for the 2-dimensional moments MK2^h (base
B - q^2) and for the even moments MK^(2h) (base B - q^2 + q).

All arithmetic is exact: B and A^(-h) are Fractions and every final moment is
asserted integral; when B is itself an integer the stronger per-step fact
that q times the double sum is divisible by A^h is asserted too.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from ksums import charsums, coset_codes, field
from ksums.combinat import binom, stirling2
from ksums.coset_codes import DoubleCosetFamily
from ksums.errors import ConsistencyError


def _require(f: DoubleCosetFamily, codim: int, use: str):
    if f.codim != codim:
        raise ValueError(f"{use} needs a codim-{codim} family, got {f.label}")
    q = f.fp.q
    if codim == 1:
        if f.sign == "-" and f.n == 1 and q < 8:
            raise ValueError(f"{use} with dc1-, n=1 needs q >= 8, got q={q}")
    else:
        if q < 4:
            raise ValueError(f"{use} needs q >= 4, got q={q}")


def _double_sum(f: DoubleCosetFamily, h: int) -> int:
    consts = coset_codes.family_constants(f)
    n_len = consts.size
    jtop = min(n_len, h)
    coeffs = coset_codes.weight_distribution(coset_codes.trace_multiplicities(f), j_max=jtop)
    total = 0
    for j in range(jtop + 1):
        cj = coeffs[j]
        if not cj:
            continue
        inner = 0
        for t in range(j, h + 1):
            b = binom(n_len - j, n_len - t) if t <= n_len else 0
            if b:
                inner += factorial(t) * stirling2(h, t) * 2 ** (h - t) * b
        total += (-1) ** (h + j) * cj * inner
    return total


def _recursion(f: DoubleCosetFamily, h: int, base: Fraction, prev) -> int:
    """One step of the shared recursion shape with lower moments supplied by prev."""
    q = f.fp.q
    if h == 0:
        return q - 1
    consts = coset_codes.family_constants(f)
    lead = Fraction(0)
    for l in range(h):
        lead += (-1) ** (h + l + 1) * binom(h, l) * base ** (h - l) * prev(l)
    dsum = _double_sum(f, h)
    if consts.cofactor.denominator == 1:
        if (q * dsum) % consts.scale ** h:
            raise ConsistencyError("double sum not divisible by scale^h",
                                   family=f.label, n=f.n, q=q, h=h, dsum=dsum)
    total = lead + Fraction(q * dsum, consts.scale ** h)
    if total.denominator != 1:
        raise ConsistencyError("moment recursion produced a non-integer",
                               family=f.label, n=f.n, q=q, h=h,
                               lead=lead, dsum=dsum)
    return int(total)


@lru_cache(maxsize=None)
def mk_recursive(f: DoubleCosetFamily, h: int) -> int:
    """MK^h from a codim-1 family's weight distribution."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    _require(f, 1, "mk_recursive")
    consts = coset_codes.family_constants(f)
    return _recursion(f, h, consts.cofactor, lambda l: mk_recursive(f, l))


@lru_cache(maxsize=None)
def mk2_recursive(f: DoubleCosetFamily, h: int) -> int:
    """MK_2^h (2-dimensional Kloosterman moments) from a codim-2 family."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    _require(f, 2, "mk2_recursive")
    consts = coset_codes.family_constants(f)
    q = f.fp.q
    return _recursion(f, h, consts.cofactor - q * q, lambda l: mk2_recursive(f, l))


@lru_cache(maxsize=None)
def mk_even_recursive(f: DoubleCosetFamily, h: int) -> int:
    """MK^(2h) (even Kloosterman moments) from a codim-2 family."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    _require(f, 2, "mk_even_recursive")
    consts = coset_codes.family_constants(f)
    q = f.fp.q
    return _recursion(f, h, consts.cofactor - q * q + q, lambda l: mk_even_recursive(f, l))


def verify_lhs_expansion(f: DoubleCosetFamily, h: int) -> dict:
    """Check sum_a w(a)^h against its binomial expansion in oracle moments.

    For codim 1 the expansion runs over MK^l; for codim 2 both the even-moment
    and the 2-dimensional-moment expansions are checked.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    fp = f.fp
    consts = coset_codes.family_constants(f)
    a_pow = Fraction(consts.scale) ** h
    lhs = sum(dual_weight ** h
              for dual_weight in (coset_codes.dual_weight(f, a) for a in field.units(fp)))
    out = {"family": f.label, "n": f.n, "q": fp.q, "h": h, "lhs": lhs}
    if f.codim == 1:
        rhs = sum((-1) ** l * binom(h, l) * consts.cofactor ** (h - l)
                  * charsums.moment(fp, 1, l) for l in range(h + 1))
        out["rhs"] = a_pow / 2 ** h * rhs
        out["ok"] = out["rhs"] == lhs
    else:
        q = fp.q
        rhs_even = sum((-1) ** l * binom(h, l) * (consts.cofactor - q * q + q) ** (h - l)
                       * charsums.moment(fp, 1, 2 * l) for l in range(h + 1))
        rhs_two = sum((-1) ** l * binom(h, l) * (consts.cofactor - q * q) ** (h - l)
                      * charsums.moment(fp, 2, l) for l in range(h + 1))
        out["rhs_even"] = a_pow / 2 ** h * rhs_even
        out["rhs_two_dimensional"] = a_pow / 2 ** h * rhs_two
        out["ok"] = lhs == out["rhs_even"] == out["rhs_two_dimensional"]
    return out
