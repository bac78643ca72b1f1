"""Binary trace codes cut out by double cosets of O+(2n,q).

Four families of cells are singled out: the ones at index n-1 and n-2
(codimension 1 and 2 below the top), with sign label '+' for even n and '-'
for odd n. At codimension t the cell's character sum at a is
coeff * K_GL(t)(lambda(a .); 1) = scale * K(lambda;a) for t = 1 and
scale * (K(lambda;a)^2 + q^2 - q) for t = 2, with coeff from
orthogroup.cell_sum_coefficient and scale = coeff * q^C(t,2). The cofactor
|cell| / scale is an exact ratio, kept as the int pair (num, den) in lowest
terms, whose den is a power of q and for some n is q (e.g. codim 1, n = 3).
The paper's explicit products for both live in ksums.verify.

The code of a family is the set of binary vectors orthogonal (over F_q) to
the vector of element traces in canonical cell order; its dual is the q
vectors (tr(a Tr g_1), ..., tr(a Tr g_N)). Everything about the code is a
function of the trace multiplicity map beta -> #{w in cell : Tr w = beta},
whose closed form is trace_multiplicities; its enumeration side is the
histogram a materialized cell carries (orthogroup.BruhatCell), which verify
compares it with.

The weight distribution is a character-sum transform (MacWilliams-Sloane,
ch. 5). Reading each beta as a bit vector of length b, orthogonality of the
characters u -> (-1)^(u.beta) gives

    C(x) = 2^(-b) sum_(u in F_2^b) (1+x)^(N-E(u)) (1-x)^E(u),

where E(u) is the number of positions whose beta has u.beta odd. One
Walsh-Hadamard transform of the multiplicity map yields every E(u); the
coefficients of x^j follow from the Krawtchouk three-term recurrence, so a
truncation at j <= h costs O(b 2^b + d h) for d distinct values of E. The
MacWilliams route feeds the formula-mode dual weights, which come from the
cell character sum instead of multiplicities, to the same kernel: the
dual weight at a is read from entry a of orthogroup.cell_sums, one cached
tuple per cell and mode, and each reader of their histogram counts it anew
from that tuple. pless_sums gives the Pless identity's right side for all
h <= h_max in one pass.

The family labels, FAMILY_LABELS, are defined in ksums.orthogroup and
imported here, so coset_codes.FAMILY_LABELS still names them.
"""

import math
from collections import Counter
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from ksums import charsums, field, orthogroup
from ksums.combinat import binom, lowest_terms
from ksums.errors import TRANSFORM_BIT_BUDGET, ConsistencyError, charge
from ksums.field import FieldParams
from ksums.orthogroup import FAMILY_LABELS

# The Krawtchouk recurrence is charged the bits it writes per weight against
# TRANSFORM_BIT_BUDGET: coefficient j of a length-N code has at most
# min(j bitlen(N), N) bits, so a truncation at j writes at most
# j min(j bitlen(N), N) >= min(j, N)^2. That is N^2 for a full distribution,
# so the budget caps min(j_max, length), the coefficients computed, at its
# square root, and every full distribution within that cap fits; a cap on
# coefficients alone let the work of a truncated query on a long code grow
# with j^2.
FULL_DISTRIBUTION_CAP = math.isqrt(TRANSFORM_BIT_BUDGET)


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
    """The one constructor of DoubleCosetFamily: n >= codim, with the sign of n's parity."""
    if label not in FAMILY_LABELS:
        raise ValueError(f"unknown family {label!r}; expected one of {FAMILY_LABELS}")
    codim = int(label[2])
    field.check_int(f"{label} n", n, codim)
    f = DoubleCosetFamily(codim, n, fp)
    if f.sign != label[3]:
        raise ValueError(f"n={n} needs sign {f.sign!r}, got {label[3]!r}")
    return f


class FamilyConstants(NamedTuple):
    scale: int  # multiplier of the Kloosterman term in the cell character sum
    cofactor: tuple  # (num, den) in lowest terms, scale * num = size * den; den a power of q
    size: int


@lru_cache(maxsize=None)
def family_constants(f: DoubleCosetFamily) -> FamilyConstants:
    """scale = cell_sum_coefficient * q^C(codim,2), size = |cell|, cofactor = size / scale;
    cached, read by each dual weight, moment kind and code row of f (verify (6,3,10): 318 hits).

    The cofactor's reduced denominator is a power of 2, so it is the quotient
    of the odd parts of size and scale, shifted by the difference of their
    2-adic valuations: one exact divmod. At dc1+ n=300 over GF(256), whose
    size has 1.4M bits, that takes 0.07 s against 1.4 s for a gcd reduction.
    """
    q = f.fp.q
    scale = orthogroup.cell_sum_coefficient(f.n, f.cell_index, q) * q ** binom(f.codim, 2)
    size = orthogroup.cell_order(f.n, f.cell_index, q)
    s, t = (size & -size).bit_length() - 1, (scale & -scale).bit_length() - 1
    odd, rem = divmod(size >> s, scale >> t)
    if rem:
        raise ConsistencyError("cofactor denominator must be a power of 2",
                               family=f.label, n=f.n, q=q)
    return FamilyConstants(scale=scale, cofactor=(odd << max(s - t, 0), 1 << max(t - s, 0)),
                           size=size)


def trace_multiplicities(f: DoubleCosetFamily) -> dict:
    """Map beta -> #{w in the cell : Tr w = beta}, over all beta in F_q, by closed form.

    The count is affine in lambda(1/beta) = (-1)^tr(1/beta) (codim 1) or
    K(lambda; 1/beta) (codim 2) at beta != 0. Zero counts stay explicit. The
    enumeration side, for verify and the tests, is the materialized cell's
    BruhatCell.trace_histogram.
    """
    fp = f.fp
    consts = family_constants(f)
    q = fp.q
    invt = field.inv_table(fp)
    if f.codim == 1:
        vals, const, at_zero = field.char_table(fp), 1, 1
    else:
        vals, const, at_zero = charsums.kloosterman_values(fp, 1), -q * q - 1, q ** 3 - q ** 2 - 1
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


def dual_kernel(f: DoubleCosetFamily) -> frozenset:
    """All a with c(a) = 0: those with tr(a beta) = 0 on the trace support."""
    fp = f.fp
    support = [beta for beta, cnt in trace_multiplicities(f).items() if cnt]
    trt, mt = field.trace_table(fp), field.mul_table(fp)
    return frozenset(a for a in field.elements(fp)
                     if all(trt[mt[a][beta]] == 0 for beta in support))


def _dual_weight(f: DoubleCosetFamily, a: int, size: int, cell_sum: int) -> int:
    num = size - cell_sum
    w, rem = divmod(num, 2)
    if rem or w < 0:
        raise ConsistencyError("dual weight must be a nonnegative integer",
                               family=f.label, a=a, num=num)
    return w


def dual_weight(f: DoubleCosetFamily, a: int, mode: str = "formula") -> int:
    """Hamming weight of the dual codeword at a != 0.

    The weight is (size - S(a))/2, with S(a) the cell's character sum at a,
    since sum_w lambda(a Tr w) = size - 2 weight. S(a) is entry a of
    orthogroup.cell_sums: formula mode reads the closed form's tuple, direct
    mode the one summed over the cell's trace histogram.
    """
    fp = f.fp
    field.check_unit(fp, a, "a")
    if mode not in ("formula", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    sums = orthogroup.cell_sums(fp, f.n, f.cell_index, "brute" if mode == "direct" else "formula")
    return _dual_weight(f, a, family_constants(f).size, sums[a])


def krawtchouk_sum(weights, length: int, cap: int) -> list:
    """Coefficients j <= cap of sum_w mult_w (1+x)^(length-w) (1-x)^w / denom.

    weights maps w -> mult_w over the dual codewords, and denom is the sum
    of the mult_w. Each coefficient sequence p_j obeys
    (j+1) p_(j+1) = (length - 2w) p_j - (length - j + 1) p_(j-1), so a weight
    costs O(cap); every quotient by denom must be an exact nonnegative int.
    """
    field.check_int("length", length, 0)
    field.check_int("cap", cap, 0)
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
    for beta, cnt in counts.items():
        # a key sizes the Walsh-Hadamard array, so it must be an element of some GF(2^r)
        field.check_int("trace value", beta, 0, (1 << field.MAX_DEGREE) - 1)
        field.check_int(f"multiplicity of {beta}", cnt, 0)
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
    queries on astronomically long codes; either way the bits the
    recurrence takes, bounded as at TRANSFORM_BIT_BUDGET, must fit that
    budget, so at most FULL_DISTRIBUTION_CAP coefficients past the first are
    computed.
    """
    weights = walsh_weights(counts)  # checks every key and count first
    total = sum(counts.values())
    cap = total if j_max is None else min(field.check_int("j_max", j_max, 0), total)
    _charge_transform(cap, total)
    return krawtchouk_sum(weights, total, cap)


def _charge_transform(cap: int, length: int):
    """Refuse coefficients j <= cap of a length-`length` code over TRANSFORM_BIT_BUDGET."""
    charge(cap * min(cap * length.bit_length(), length),
           "coefficients up to j = {} of a length-{} code, per weight",
           f"the cap of {FULL_DISTRIBUTION_CAP} coefficients, squared; query a smaller j_max",
           cap, length)


def dual_weight_histogram(f: DoubleCosetFamily) -> dict:
    """Formula-mode dual weight -> number of a in F_q with it (weight 0 at a = 0).

    Counted anew at each call, q - 1 divmods over one cached
    orthogroup.cell_sums tuple, so it needs no cache of its own. Its readers
    are the MacWilliams route, the dual distribution and the expansion row
    of ksums.moments.
    """
    size = family_constants(f).size
    sums = orthogroup.cell_sums(f.fp, f.n, f.cell_index, "formula")
    weights = Counter(_dual_weight(f, a, size, s) for a, s in enumerate(sums[1:], 1))
    weights[0] += 1
    return dict(weights)


def weight_distribution_macwilliams(f: DoubleCosetFamily) -> list:
    """Full weight distribution via the transform of the dual enumerator.

    Feeds the formula-mode dual weight histogram to the same Krawtchouk
    kernel; the division by q is exact whether or not a -> c(a) is
    injective, because a kernel of size 2 double-counts a dual code of half
    the size. A full transform charges N^2 bits to TRANSFORM_BIT_BUDGET, as
    in weight_distribution.
    """
    n = family_constants(f).size
    _charge_transform(n, n)
    return krawtchouk_sum(dual_weight_histogram(f), n, n)


def dual_weight_distribution(f: DoubleCosetFamily) -> list:
    """Codeword-weight histogram of the dual code {c(a)}.

    a -> c(a) is F_2-linear, so each codeword is c(a) for exactly
    |dual_kernel| values of a, all of its weight; the dual weight histogram
    counts it that many times.
    """
    kern = len(dual_kernel(f))
    out = [0] * (family_constants(f).size + 1)
    for w, cnt in dual_weight_histogram(f).items():
        out[w], rem = divmod(cnt, kern)
        if rem:
            raise ConsistencyError("dual weight count must be a multiple of the kernel size",
                                   family=f.label, n=f.n, q=f.fp.q, w=w, count=cnt)
    return out


def pless_sums(weights, n: int, h_max: int) -> list:
    """P(w, n, h) for h <= h_max: sum_j j^h B_j = 2^(k-h) P(w, n, h) (MacWilliams-Sloane, ch. 5).

    For a binary [n, k] code whose dual has weights w, P(w, n, h) is
    sum_(t <= min(n,h)) t! S(h,t) 2^(h-t) G_t, where G_t = sum_(j<=t) (-1)^j w_j C(n-j, t-j)
    is built once, each binomial a ratio step from the last. b(h,t) = t! S(h,t) 2^(h-t)
    = 2t b(h-1,t) + t b(h-1,t-1) is (M b(h-1))_t for a bidiagonal M, so P(w, n, h) is
    entry 0 of (M^T)^h G: per h, g_t <- 2t g_t + (t+1) g_(t+1) for the t <= h_max - h
    still read, with no product of two big ints. Only w_j, j <= min(n, h_max), are read.
    """
    field.check_int("n", n, 0)
    field.check_int("h_max", h_max, 0)
    top = min(n, h_max)
    g = [0] * (top + 2)  # G_(top+1) is 0 when top = n and never read otherwise
    for j in range(top + 1):
        term = (-1) ** j * weights[j]  # (-1)^j w_j C(n-j, t-j) at t = j
        for t in range(j, top + 1):
            g[t] += term
            term = term * (n - t) // (t - j + 1)
    out = [g[0]]
    for h in range(1, h_max + 1):
        for t in range(min(top, h_max - h) + 1):
            g[t] = 2 * t * g[t] + (t + 1) * g[t + 1]
        out.append(g[0])
    return out


def charge_pless(h_max: int, n: int):
    """Refuse a pless_sums pass up to h_max on a length-n code: h_max^2 (h_max + bitlen n) bits."""
    charge(h_max ** 2 * (h_max + n.bit_length()),
           "Pless sums up to h = {} of a length-{} code", "lower h_max", h_max, n)


def pless_check(code_weights, dual_weights, k: int, h_max: int) -> dict:
    """Power-moment identity for a binary [n, k] code against its dual, for all h <= h_max.

    code_weights[j] counts codewords of weight j in the code, dual_weights[j]
    in the dual; both lists have length n+1. Returns both exact sides, lists
    over h, the right from one pless_sums pass charged before any work. A
    right side 2^(k-h) P is an int where 2^(h-k) divides P, and otherwise
    the pair (num, den) of combinat.lowest_terms, which no int equals.
    """
    if len(code_weights) != len(dual_weights):
        raise ValueError("code and dual weight lists must have equal length")
    field.check_int("h_max", h_max, 0)
    n = len(code_weights) - 1
    field.check_int("k", k, 0, n)
    charge_pless(h_max, n)
    lhs, terms = [], list(code_weights)  # terms[j] = j^h B_j
    for _ in range(h_max + 1):
        lhs.append(sum(terms))
        terms = list(map(mul, terms, range(n + 1)))
    rhs = []
    for h, p in enumerate(pless_sums(dual_weights, n, h_max)):
        num, den = lowest_terms(p << max(k - h, 0), 1 << max(h - k, 0))
        rhs.append(num if den == 1 else (num, den))
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}
