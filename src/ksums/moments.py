"""Recursive generation of Kloosterman power moments from code weight data.

Writing A for a family's scale, B = N/A for its cofactor (N the code
length; coset_codes.family_constants derives both from the cell character
sum) and C_j for its weight distribution, the power-moment identity applied
to the q-codeword dual code has left side sum_a w(a)^h with the dual weights
w(a) affine in K(lambda;a) (codim 1) or in K(lambda;a)^2 (codim 2).
Expanding that side binomially and separating its l = h term yields, after
multiplying through by (-2/A)^h,

    MK^h = sum_(l<h) (-1)^(h+l+1) C(h,l) B^(h-l) MK^l + q A^(-h) (-1)^h P(C, N, h)

seeded by MK^0 = q - 1, where P is the Pless sum of coset_codes.pless_sums. The
codim-2 families produce the same shape for the 2-dimensional moments MK2^h
(base B - q^2) and for the even moments MK^(2h) (base B - q^2 + q); KINDS
lists every sequence with its base and its oracle. The left side sums
w(a)^h over all q values of a, so a kind needs neither a bound on q nor an
injective a -> c(a): it applies to every family of its codimension.

All arithmetic is exact: B and A^(-h) are Fractions, and every final moment
is checked to be integral, raising ConsistencyError otherwise; when B is
itself an integer the stronger per-step fact that q times the Pless sum is
divisible by A^h is checked too. A request up to h_max is one pass
(MomentKind.sequence), budgeted before any work; both codim-2 kinds share its
Pless sums, and mk_recursive and its siblings read entry h of a pass up to h.
The oracles are sequences too (MomentKind.oracles, one charsums.power_moments
pass, charged like the recursion's), and verify_lhs_expansion reads the
dual-weight histogram and each kind's oracle list once for all h.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from ksums import charsums, coset_codes, field
from ksums.combinat import binom
from ksums.coset_codes import DoubleCosetFamily
from ksums.errors import ConsistencyError


class MomentKind(NamedTuple):
    """One moment sequence the recursion generates, with its oracle.

    The recursion runs on base = cofactor - shift(q) over every codim-`codim`
    family; the oracle of MK^h is the sum over a of K_m(lambda;a)^(step h).
    `check` names verify's comparison.
    """

    name: str
    codim: int
    shift: Callable
    m: int
    step: int
    check: str

    def base(self, f: DoubleCosetFamily) -> Fraction:
        return coset_codes.family_constants(f).cofactor - self.shift(f.fp.q)

    def oracles(self, fp, h_max: int) -> list:
        """MK^0..MK^h_max of this kind from the Kloosterman value table, in one charged pass."""
        return charsums.power_moments(fp, self.m, h_max, self.step)

    def sequence(self, f: DoubleCosetFamily, h_max: int) -> list:
        """MK^0..MK^h_max of this kind, in one pass over f's Pless sums."""
        field.check_int("h_max", h_max, 0)
        q = f.fp.q
        if f.codim != self.codim:
            raise ValueError(f"{self.name} needs a codim-{self.codim} family, got {f.label}")
        consts = coset_codes.family_constants(f)
        base = self.base(f)
        seq = [q - 1]
        for h, dsum in enumerate(_pless_sums(f, h_max)[1:], 1):
            lead = (-1) ** (h + 1) * _expand(base, h, seq)
            if consts.cofactor.denominator == 1 and (q * dsum) % consts.scale ** h:
                raise ConsistencyError("double sum not divisible by scale^h",
                                       family=f.label, n=f.n, q=q, h=h, dsum=dsum)
            total = lead + Fraction(q * dsum, consts.scale ** h)
            if total.denominator != 1:
                raise ConsistencyError("moment recursion produced a non-integer", family=f.label,
                                       n=f.n, q=q, h=h, lead=lead, dsum=dsum)
            seq.append(int(total))
        return seq


KINDS = (
    MomentKind("mk", 1, lambda q: 0, 1, 1, "moments.recursion_vs_oracle"),
    MomentKind("mk2", 2, lambda q: q * q, 2, 1, "moments.two_dimensional_recursion_vs_oracle"),
    MomentKind("mk_even", 2, lambda q: q * q - q, 1, 2, "moments.even_recursion_vs_oracle"),
)
MK, MK2, MK_EVEN = KINDS


def kinds(codim: int) -> tuple:
    """The moment kinds a codim-`codim` family generates, in report order."""
    return tuple(k for k in KINDS if k.codim == codim)


def _expand(base: Fraction, h: int, ms) -> Fraction:
    """sum_l (-1)^l C(h,l) base^(h-l) ms[l] over the supplied l <= h, in ints over d^h."""
    p, d = base.numerator, base.denominator
    acc = 0
    for l, m in enumerate(ms):  # Horner's rule in p: no big power of p per term
        acc = acc * p + (-1) ** l * binom(h, l) * d ** l * m
    return Fraction(acc * p ** (h + 1 - len(ms)), d ** h)


@lru_cache(maxsize=None)
def _pless_sums(f: DoubleCosetFamily, h_max: int) -> tuple:
    """(-1)^h P(C, N, h) for h <= h_max of f's code; cached: the two codim-2 kinds share it,
    one hit per codim-2 request.

    Charged before any work by coset_codes.charge_pless, h_max^2 (h_max + bitlen N) bits,
    which also bounds the truncated transform's h_max^2 bitlen N.
    """
    size = coset_codes.family_constants(f).size
    coset_codes.charge_pless(h_max, size)
    dist = coset_codes.weight_distribution(coset_codes.trace_multiplicities(f), j_max=h_max)
    return tuple((-1) ** h * p for h, p in enumerate(coset_codes.pless_sums(dist, size, h_max)))


# typed: True or 1.0 must be refused by sequence, not read h = 1's entry
@lru_cache(maxsize=None, typed=True)
def mk_recursive(f: DoubleCosetFamily, h: int) -> int:
    """MK^h from a codim-1 family's weight distribution; cached for perfbench's traced
    hit_ratio, which reads these three caches by name (no reader here: 0 hits)."""
    return MK.sequence(f, h)[h]


@lru_cache(maxsize=None, typed=True)
def mk2_recursive(f: DoubleCosetFamily, h: int) -> int:
    """MK_2^h (2-dimensional Kloosterman moments) of a codim-2 family; cached like mk_recursive."""
    return MK2.sequence(f, h)[h]


@lru_cache(maxsize=None, typed=True)
def mk_even_recursive(f: DoubleCosetFamily, h: int) -> int:
    """MK^(2h) (even Kloosterman moments) from a codim-2 family; cached like mk_recursive."""
    return MK_EVEN.sequence(f, h)[h]


def verify_lhs_expansion(f: DoubleCosetFamily, h_max: int) -> list:
    """The h <= h_max at which sum_a w(a)^h differs from its expansion in oracle moments.

    Every kind of the family's codim is expanded: MK^l for codim 1, and both
    the 2-dimensional and the even moments for codim 2. The dual-weight
    histogram and each kind's oracle list are read once.
    """
    field.check_int("h_max", h_max, 0)
    half_scale = Fraction(coset_codes.family_constants(f).scale, 2)
    hist = coset_codes.dual_weight_histogram(f).items()
    # less the term 0^h of a = 0, which the histogram counts at weight 0
    lhs = [sum(mult * w ** h for w, mult in hist) - 0 ** h for h in range(h_max + 1)]
    expansions = [(kind.base(f), kind.oracles(f.fp, h_max)) for kind in kinds(f.codim)]
    return [h for h, side in enumerate(lhs) if any(
        half_scale ** h * _expand(base, h, ms[:h + 1]) != side for base, ms in expansions)]
