"""Binary trace codes cut out by double cosets of O+(2n,q).

Four families of cells are singled out: the ones at index n-1 and n-2
(codimension 1 and 2 below the top), with sign label '+' for even n and '-'
for odd n. At codimension t the cell's character sum at a is
coeff * K_GL(t)(lambda(a .); 1) = scale * K(lambda;a) for t = 1 and
scale * (K(lambda;a)^2 + q^2 - q) for t = 2, with coeff from
orthogroup.cell_sum_coefficient and scale = coeff * q^C(t,2). The cofactor
|cell| / scale is an exact Fraction that for some n picks up a 1/q (e.g.
codim 1, n = 3). The paper's explicit products for both live in ksums.verify.

The code of a family is the set of binary vectors orthogonal (over F_q) to
the vector of element traces in canonical cell order; its dual is the q
vectors (tr(a Tr g_1), ..., tr(a Tr g_N)). Everything about the code is a
function of the trace multiplicity map beta -> #{w in cell : Tr w = beta},
which has both a closed form and an enumeration route.

The weight distribution is a character-sum transform (MacWilliams-Sloane,
ch. 5). Reading each beta as a bit vector of length b, orthogonality of the
characters u -> (-1)^(u.beta) gives

    C(x) = 2^(-b) sum_(u in F_2^b) (1+x)^(N-E(u)) (1-x)^E(u),

where E(u) is the number of positions whose beta has u.beta odd. One
Walsh-Hadamard transform of the multiplicity map yields every E(u); the
coefficients of x^j follow from the Krawtchouk three-term recurrence, so a
truncation at j <= h costs O(b 2^b + d h) for d distinct values of E. The
MacWilliams route feeds the formula-mode dual weights, which come from the
cell character sum instead of multiplicities, to the same kernel.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ksums import charsums, field, orthogroup
from ksums.combinat import binom, stirling2
from ksums.errors import BudgetError, ConsistencyError
from ksums.field import FieldParams

FULL_DISTRIBUTION_CAP = 10 ** 4  # single-coefficient queries stay available above

FAMILY_LABELS = ("dc1+", "dc1-", "dc2+", "dc2-")


class DoubleCosetFamily(NamedTuple):
    """Cells P+ s_(n-codim) P+; the label's sign is '+' iff n is even, checked in parse_family."""

    codim: int
    n: int
    fp: FieldParams

    @property
    def cell_index(self) -> int:
        return self.n - self.codim

    @property
    def sign(self) -> str:
        return "+-"[self.n % 2]

    @property
    def label(self) -> str:
        return f"dc{self.codim}{self.sign}"

    def __repr__(self):
        return f"DoubleCosetFamily({self.label}, n={self.n}, q={self.fp.q})"


def parse_family(label: str, n: int, fp: FieldParams) -> DoubleCosetFamily:
    """The one constructor of DoubleCosetFamily: the label's sign must match n's parity."""
    if label not in FAMILY_LABELS:
        raise ValueError(f"unknown family {label!r}; expected one of {FAMILY_LABELS}")
    f = DoubleCosetFamily(int(label[2]), n, fp)
    if f.sign != label[3]:
        raise ValueError(f"n={n} needs sign {f.sign!r}, got {label[3]!r}")
    if f.cell_index < 0:
        raise ValueError(f"{label} needs n >= {f.codim}, got n={n}")
    return f


class FamilyConstants(NamedTuple):
    scale: int  # multiplier of the Kloosterman term in the cell character sum
    cofactor: Fraction  # scale * cofactor = size; may carry a 1/q power
    size: int


@lru_cache(maxsize=None)
def family_constants(f: DoubleCosetFamily) -> FamilyConstants:
    """scale = cell_sum_coefficient * q^C(codim,2), size = |cell|, cofactor = size / scale."""
    q = f.fp.q
    scale = orthogroup.cell_sum_coefficient(f.n, f.cell_index, q) * q ** binom(f.codim, 2)
    size = orthogroup.cell_order(f.n, f.cell_index, q)
    return FamilyConstants(scale=scale, cofactor=Fraction(size, scale), size=size)


def enumerable(f: DoubleCosetFamily) -> bool:
    return orthogroup.enumerable(f.fp, f.n)


def family_cell(f: DoubleCosetFamily) -> orthogroup.BruhatCell:
    return orthogroup.bruhat_cell(f.fp, f.n, f.cell_index)


def trace_multiplicities(f: DoubleCosetFamily, mode: str = "formula") -> dict:
    """Map beta -> #{w in the cell : Tr w = beta}, over all beta in F_q.

    Formula mode evaluates the closed form, affine in lambda(1/beta) =
    (-1)^tr(1/beta) (codim 1) or K(lambda; 1/beta) (codim 2) at beta != 0;
    brute_force mode histograms the materialized cell. Zero counts stay explicit.
    """
    fp = f.fp
    if mode == "brute_force":
        hist = orthogroup.cell_trace_histogram(fp, f.n, f.cell_index)
        return {beta: hist.get(beta, 0) for beta in field.elements(fp)}
    if mode != "formula":
        raise ValueError(f"unknown mode {mode!r}")
    consts = family_constants(f)
    q = fp.q
    invt = field.inv_table(fp)
    if f.codim == 1:
        vals, const, at_zero = field.char_table(fp), 1, 1
    else:
        vals, const, at_zero = charsums.kloosterman_values(fp), -q * q - 1, q ** 3 - q ** 2 - 1
    out = {}
    for beta in field.elements(fp):
        adj = q * vals[invt[beta]] + const if beta else at_zero
        num = consts.size + consts.scale * adj
        cnt, rem = divmod(num, q)
        if rem or cnt < 0:
            raise ConsistencyError("trace multiplicity must be a nonnegative integer",
                                   family=f.label, n=f.n, q=q, beta=beta, num=num)
        out[beta] = cnt
    return out


def ordered_traces(f: DoubleCosetFamily) -> tuple:
    """Tr g_j for the cell elements in canonical (packed-key) order."""
    return orthogroup.cell_traces(f.fp, f.n, f.cell_index)


def dual_codeword(f: DoubleCosetFamily, a: int) -> tuple:
    """The bit vector (tr(a Tr g_1), ..., tr(a Tr g_N)); additive in a."""
    fp = f.fp
    field.check_element(fp, a)
    trt = field.trace_table(fp)
    arow = field.mul_table(fp)[a]
    return tuple(trt[arow[t]] for t in ordered_traces(f))


def dual_kernel(f: DoubleCosetFamily) -> frozenset:
    """All a with c(a) = 0: those with tr(a beta) = 0 on the trace support."""
    fp = f.fp
    support = [beta for beta, cnt in trace_multiplicities(f).items() if cnt]
    trt, mt = field.trace_table(fp), field.mul_table(fp)
    return frozenset(a for a in field.elements(fp)
                     if all(trt[mt[a][beta]] == 0 for beta in support))


def dual_weight(f: DoubleCosetFamily, a: int, mode: str = "formula") -> int:
    """Hamming weight of the dual codeword at a != 0.

    direct mode counts ones in the materialized vector; formula mode
    evaluates (size - S(a))/2 with S(a) the cell's character sum at a.
    """
    fp = f.fp
    field.check_element(fp, a)
    if a == 0:
        raise ValueError("dual weights are defined for a != 0")
    if mode == "direct":
        return sum(dual_codeword(f, a))
    if mode != "formula":
        raise ValueError(f"unknown mode {mode!r}")
    num = family_constants(f).size - orthogroup.exp_sum_cell(fp, f.n, f.cell_index, a)
    w, rem = divmod(num, 2)
    if rem or w < 0:
        raise ConsistencyError("dual weight must be a nonnegative integer",
                               family=f.label, a=a, num=num)
    return w


def krawtchouk_sum(weights, length: int, cap: int) -> list:
    """Coefficients j <= cap of sum_w mult_w (1+x)^(length-w) (1-x)^w / denom.

    weights maps w -> mult_w over the dual codewords, and denom is the sum
    of the mult_w. Each coefficient sequence p_j obeys
    (j+1) p_(j+1) = (length - 2w) p_j - (length - j + 1) p_(j-1), so a weight
    costs O(cap); every quotient by denom must be an exact nonnegative int.
    """
    denom = sum(weights.values())
    acc = [0] * (cap + 1)
    for w, mult in weights.items():
        prev, cur = 0, 1
        acc[0] += mult
        for j in range(cap):
            prev, cur = cur, ((length - 2 * w) * cur - (length - j + 1) * prev) // (j + 1)
            acc[j + 1] += mult * cur
    out = []
    for j, total in enumerate(acc):
        cj, rem = divmod(total, denom)
        if rem or cj < 0:
            raise ConsistencyError("transform coefficient must be a nonnegative integer",
                                   j=j, acc=total, denom=denom)
        out.append(cj)
    return out


def walsh_weights(counts) -> Counter:
    """E(u) -> number of u in F_2^b; one Walsh-Hadamard transform gives N - 2 E(u)."""
    total = sum(counts.values())
    size = 1 << max(counts, default=0).bit_length()
    spectrum = [0] * size
    for beta, cnt in counts.items():
        spectrum[beta] = cnt
    half = 1
    while half < size:
        for i in range(0, size, 2 * half):
            for k in range(i, i + half):
                x, y = spectrum[k], spectrum[k + half]
                spectrum[k], spectrum[k + half] = x + y, x - y
        half *= 2
    return Counter((total - s) // 2 for s in spectrum)


def weight_distribution(counts, j_max: int | None = None) -> list:
    """Weight distribution of the code determined by a trace multiplicity map.

    Entry j counts binary vectors that pick nu_beta ones among the count(beta)
    positions of each beta with sum of nu_beta equal to j and sum of
    nu_beta * beta zero in F_q. Truncate with j_max for single-coefficient
    queries on astronomically long codes.
    """
    total = sum(counts.values())
    if any(c < 0 for c in counts.values()):
        raise ValueError("multiplicities must be nonnegative")
    if j_max is None:
        if total > FULL_DISTRIBUTION_CAP:
            raise BudgetError(
                f"full distribution of length {total} exceeds cap {FULL_DISTRIBUTION_CAP}; "
                "query single coefficients via j_max")
        cap = total
    else:
        if j_max < 0:
            raise ValueError(f"j_max must be >= 0, got {j_max}")
        cap = min(j_max, total)
    return krawtchouk_sum(walsh_weights(counts), total, cap)


@lru_cache(maxsize=None)
def dual_weight_histogram(f: DoubleCosetFamily) -> Counter:
    """Formula-mode dual weight -> number of a in F_q with it (weight 0 at a = 0).

    Cached for every h of moments.verify_lhs_expansion; do not mutate it.
    """
    weights = Counter(dual_weight(f, a, "formula") for a in field.units(f.fp))
    weights[0] += 1
    return weights


def weight_distribution_macwilliams(f: DoubleCosetFamily) -> list:
    """Full weight distribution via the transform of the dual enumerator.

    Feeds the formula-mode dual weight histogram to the same Krawtchouk
    kernel; the division by q is exact whether or not a -> c(a) is
    injective, because a kernel of size 2 double-counts a dual code of half
    the size.
    """
    n = family_constants(f).size
    if n > FULL_DISTRIBUTION_CAP:
        raise BudgetError(f"length {n} exceeds cap {FULL_DISTRIBUTION_CAP}")
    return krawtchouk_sum(dual_weight_histogram(f), n, n)


def dual_weight_distribution(f: DoubleCosetFamily) -> list:
    """Codeword-weight histogram of the dual code {c(a)}; needs injectivity."""
    if dual_kernel(f) != frozenset({0}):
        raise ValueError(f"{f.label}(n={f.n}, q={f.fp.q}): a -> c(a) is not injective")
    out = [0] * (family_constants(f).size + 1)
    for w, cnt in dual_weight_histogram(f).items():
        out[w] = cnt
    return out


def pless_sum(weights, n: int, h: int) -> int:
    """P(w, n, h) = sum_(j <= min(n,h)) (-1)^j w_j sum_(t=j..h) t! S(h,t) 2^(h-t) C(n-j, n-t).

    The Pless power-moment identity (MacWilliams-Sloane, ch. 5) for a binary
    [n, k] code whose dual has weight distribution w reads
    sum_j j^h B_j = 2^(k-h) P(w, n, h). Only w_j for j <= min(n, h) are
    read, so a truncated distribution suffices; terms with t > n vanish.
    """
    top = min(n, h)
    coef = [math.factorial(t) * stirling2(h, t) * 2 ** (h - t) for t in range(top + 1)]
    total = 0
    for j in range(top + 1):
        if weights[j]:
            total += (-1) ** j * weights[j] * sum(coef[t] * binom(n - j, n - t)
                                                  for t in range(j, top + 1))
    return total


def pless_check(code_weights, dual_weights, k: int, h: int) -> dict:
    """Power-moment identity for a binary [n, k] code against its dual.

    code_weights[j] counts codewords of weight j in the code, dual_weights[j]
    in the dual; both lists have length n+1. Returns both exact sides.
    """
    if len(code_weights) != len(dual_weights):
        raise ValueError("code and dual weight lists must have equal length")
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    n = len(code_weights) - 1
    lhs = sum(j ** h * bj for j, bj in enumerate(code_weights))
    rhs = pless_sum(dual_weights, n, h) * Fraction(2) ** (k - h)
    ok = rhs.denominator == 1 and lhs == int(rhs)
    return {"h": h, "lhs": lhs, "rhs": rhs if rhs.denominator != 1 else int(rhs), "ok": ok}
