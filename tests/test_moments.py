import sys
from fractions import Fraction

import pytest

from ksums import charsums, coset_codes as cc, field, moments
from ksums.errors import BudgetError
from ksums.field import binary_field

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)
GF16 = binary_field(4)

H_MAX = 10


def fam(label, n, fp):
    return cc.parse_family(label, n, fp)


def test_admissibility():
    with pytest.raises(ValueError):
        moments.mk_recursive(fam("dc2+", 2, GF4), 1)  # wrong codim
    with pytest.raises(ValueError):
        moments.mk2_recursive(fam("dc1+", 2, GF4), 1)
    with pytest.raises(ValueError):
        moments.mk_even_recursive(fam("dc1-", 3, GF2), 1)
    with pytest.raises(ValueError):
        moments.mk_recursive(fam("dc1+", 2, GF4), -1)


# dc1- n=1 at q = 2, 4 and the codim-2 families at q = 2: the recursion sums
# w(a)^h over every a, so it needs no injectivity of a -> c(a) and no q bound
SMALL_Q_FAMILIES = [("dc1-", 1, GF2), ("dc1-", 1, GF4)] + [
    ("dc2+" if n % 2 == 0 else "dc2-", n, GF2) for n in range(2, 9)]


def test_every_kind_applies_at_small_q():
    pairs = 0
    for label, n, fp in SMALL_Q_FAMILIES:
        f = fam(label, n, fp)
        for kind in moments.kinds(f.codim):
            pairs += 1
            assert kind.sequence(f, 12) == kind.oracles(fp, 12), (label, n, fp.q, kind.name)
        assert moments.verify_lhs_expansion(f, 12) == [], (label, n, fp.q)
    assert pairs == 16


def test_h0_seed():
    assert moments.mk_recursive(fam("dc1+", 2, GF4), 0) == 3
    assert moments.mk2_recursive(fam("dc2+", 2, GF4), 0) == 3
    assert moments.mk_even_recursive(fam("dc2-", 3, GF4), 0) == 3


def test_mk_matches_oracle_q2():
    f = fam("dc1+", 2, GF2)
    for h in range(H_MAX + 1):
        assert moments.mk_recursive(f, h) == charsums.moment(GF2, 1, h)


@pytest.mark.parametrize("fp", [GF4, GF8])
def test_mk_matches_oracle(fp):
    for f in (fam("dc1+", 2, fp), fam("dc1-", 3, fp), fam("dc1-", 1, fp)):
        for h in range(H_MAX + 1):
            assert moments.mk_recursive(f, h) == charsums.moment(fp, 1, h), (f, h)


def test_mk_matches_oracle_q256():
    fp = binary_field(8)
    f = fam("dc1+", 2, fp)
    for h in range(H_MAX + 1):
        assert moments.mk_recursive(f, h) == charsums.moment(fp, 1, h), h


@pytest.mark.parametrize("fp", [GF4, GF8])
def test_mk2_and_even_match_oracle(fp):
    for label, n in [("dc2+", 2), ("dc2-", 3)]:
        f = fam(label, n, fp)
        for h in range(H_MAX + 1):
            assert moments.mk2_recursive(f, h) == charsums.moment(fp, 2, h), (f, h)
            assert moments.mk_even_recursive(f, h) == charsums.moment(fp, 1, 2 * h), (f, h)


def test_all_admissible_families_q16():
    for f in (fam("dc1+", 2, GF16), fam("dc1-", 3, GF16), fam("dc1-", 1, GF16)):
        for h in range(H_MAX + 1):
            assert moments.mk_recursive(f, h) == charsums.moment(GF16, 1, h), (f, h)
    for label, n in [("dc2+", 2), ("dc2-", 3)]:
        f = fam(label, n, GF16)
        for h in range(H_MAX + 1):
            assert moments.mk2_recursive(f, h) == charsums.moment(GF16, 2, h), (f, h)
            assert moments.mk_even_recursive(f, h) == charsums.moment(GF16, 1, 2 * h), (f, h)


def test_specialized_constants_n2_plus():
    # the (codim 1, n=2) instance prints as: lead base q^2-1, outer factor
    # q^(1-2h) (q^2-1)^(-h), and binomial columns q^3(q^2-1),
    # q^2(q-1)(q+1)^2, q^2(q+1)(q-1)^2
    for fp in (GF2, GF4, GF8):
        q = fp.q
        f = fam("dc1+", 2, fp)
        consts = cc.family_constants(f)
        assert consts.scale == q ** 2 * (q ** 2 - 1)
        assert consts.cofactor == q ** 2 - 1
        assert consts.size == q ** 2 * (q ** 2 - 1) ** 2
        for h in range(1, 6):
            assert (Fraction(q, consts.scale ** h)
                    == Fraction(q) ** (1 - 2 * h) * Fraction(q ** 2 - 1) ** -h)
        counts = cc.trace_multiplicities(f)
        for beta, cnt in counts.items():
            if beta == 0:
                assert cnt == q ** 3 * (q ** 2 - 1)
            elif field.trace(fp, field.inv(fp, beta)) == 0:
                assert cnt == q ** 2 * (q - 1) * (q + 1) ** 2
            else:
                assert cnt == q ** 2 * (q + 1) * (q - 1) ** 2


def test_specialized_constants_n1_minus():
    # the (codim 1, n=1) instance: outer factor exactly q, length q-1,
    # multiplicity columns {1, 2, 0}
    for fp in (GF8, GF16):
        f = fam("dc1-", 1, fp)
        consts = cc.family_constants(f)
        assert consts.scale == 1 and consts.size == fp.q - 1
        assert consts.cofactor == fp.q - 1
        assert set(cc.trace_multiplicities(f).values()) == {0, 1, 2}


def test_first_two_moments_closed_forms():
    for fp in (GF4, GF8, GF16):
        assert charsums.moment(fp, 1, 1) == 1
        assert charsums.moment(fp, 1, 2) == fp.q ** 2 - fp.q - 1


def test_family_independence():
    seq4 = [moments.mk_recursive(fam("dc1+", 2, GF4), h) for h in range(H_MAX + 1)]
    assert seq4 == [moments.mk_recursive(fam("dc1-", 3, GF4), h) for h in range(H_MAX + 1)]
    seq8 = [moments.mk_recursive(fam("dc1+", 2, GF8), h) for h in range(H_MAX + 1)]
    assert seq8 == [moments.mk_recursive(fam("dc1-", 3, GF8), h) for h in range(H_MAX + 1)]
    assert seq8 == [moments.mk_recursive(fam("dc1-", 1, GF8), h) for h in range(H_MAX + 1)]


def test_two_dimensional_vs_even_moments():
    # MK2^1 = MK^2 - q(q-1), summing the Carlitz identity over a
    for fp in (GF4, GF8):
        f = fam("dc2+", 2, fp)
        assert (moments.mk2_recursive(f, 1)
                == moments.mk_even_recursive(f, 1) - fp.q * (fp.q - 1))


def test_even_moments_expand_in_two_dimensional_ones():
    # K^2 = K_2 + q pointwise, so MK^(2h) = sum_l C(h,l) q^(h-l) MK2^l; this
    # ties the two recursion stacks together without touching the oracle
    from ksums.combinat import binom

    for fp in (GF4, GF8):
        for label, n in [("dc2+", 2), ("dc2-", 3)]:
            f = fam(label, n, fp)
            for h in range(H_MAX + 1):
                expansion = sum(binom(h, l) * fp.q ** (h - l) * moments.mk2_recursive(f, l)
                                for l in range(h + 1))
                assert moments.mk_even_recursive(f, h) == expansion, (label, fp.q, h)


def test_even_moments_nonnegative():
    for fp in (GF4, GF8):
        f = fam("dc2+", 2, fp)
        for h in range(H_MAX + 1):
            assert moments.mk_even_recursive(f, h) >= 0


def test_code_data_computed_once_per_family(monkeypatch):
    calls = []
    real = cc.trace_multiplicities

    def counting(f, *args):
        calls.append(f)
        return real(f, *args)

    monkeypatch.setattr(cc, "trace_multiplicities", counting)
    moments._pless_sums.cache_clear()
    fams = [fam("dc2+", 2, GF8), fam("dc2-", 3, GF4)]
    for f in fams:
        for kind in moments.kinds(f.codim):
            kind.sequence(f, H_MAX)
    assert calls == fams


def test_pass_budget_boundary():
    # a length-1 code: the pass costs h_max^2 (h_max + 1) bits, so 463 is the
    # largest h_max within TRANSFORM_BIT_BUDGET
    f = fam("dc1-", 1, GF2)
    assert moments.MK.sequence(f, 463)[-1] == charsums.moment(GF2, 1, 463)
    with pytest.raises(BudgetError, match="h = 464 .* over budget 100000000"):
        moments.MK.sequence(f, 464)


def test_oracle_pass_budget_boundary():
    # the oracle pass costs h_max^2 (h_max + m r) bits: at r = 1, m = 1 that is
    # the recursion's charge on the length-1 code above, with the same 463
    assert moments.MK.oracles(GF2, 463) == [charsums.moment(GF2, 1, h) for h in range(464)]
    with pytest.raises(BudgetError, match="h = 464 .* over budget 100000000"):
        moments.MK.oracles(GF2, 464)
    with pytest.raises(BudgetError, match="h = 464 .* over budget 100000000"):
        charsums.power_moments(GF2, 1, 464)
    # one moment is entry h of that pass, so it is refused where the pass is
    assert charsums.moment(GF2, 1, 463) == 1  # the one value K(lambda; 1) = 1 of GF(2)
    with pytest.raises(BudgetError, match="h = 464 .* over budget 100000000"):
        charsums.moment(GF2, 1, 464)


def test_admitted_passes_have_admitted_oracles():
    # the pass is charged h^2 (h + bitlen N) bits and the oracle h^2 (h + m r),
    # so bitlen N >= m r for every kind a family generates keeps every
    # admitted `moments recursive --compare-oracle` request admitted; dc1- n=1,
    # of length q - 1, meets it with equality
    for label in cc.FAMILY_LABELS:
        codim = int(label[2])
        for n in range(codim, codim + 12):
            if "+-"[n % 2] != label[3]:
                continue
            for r in range(1, 9):
                f = fam(label, n, binary_field(r))
                bits = cc.family_constants(f).size.bit_length()
                assert all(bits >= kind.m * r for kind in moments.kinds(codim)), (f, bits)
    assert cc.family_constants(fam("dc1-", 1, GF2)).size == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.10.7")
def test_admitted_passes_run_at_the_default_digit_limit():
    # dc1+ n=50 over GF(256) is a code of length past 4,300 decimal digits;
    # only cli.main lifts Python's int -> str limit (for this whole process,
    # so it is put back here), and an admitted library call must not format
    # the length for a refusal text it never raises
    f = fam("dc1+", 50, binary_field(8))
    assert cc.family_constants(f).size > 10 ** 4300
    counts = cc.trace_multiplicities(f)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        mk = moments.MK.sequence(f, 1)
        dist = cc.weight_distribution(counts, j_max=1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert mk == [charsums.moment(f.fp, 1, h) for h in range(2)]
    # a weight-1 word is one position whose trace is 0
    assert dist == [1, counts.get(0, 0)]


def test_lhs_expansion():
    assert moments.verify_lhs_expansion(fam("dc1-", 1, GF8), 3) == []
    # codim 2: both the 2-dimensional and the even expansion must match
    assert moments.verify_lhs_expansion(fam("dc2+", 2, GF4), 2) == []
    assert moments.verify_lhs_expansion(fam("dc1+", 2, GF4), 0) == []
    assert moments.verify_lhs_expansion(fam("dc1-", 3, GF4), 5) == []
    assert moments.verify_lhs_expansion(fam("dc2-", 3, GF4), 5) == []


@pytest.mark.parametrize("label, n, fp", [("dc1-", 1, GF8), ("dc2+", 2, GF4)])
def test_lhs_expansion_reports_a_wrong_oracle(monkeypatch, label, n, fp):
    # one moment of one kind off by one at h = 3: the h below it still match
    f = fam(label, n, fp)
    wrong = moments.kinds(f.codim)[-1]
    real = moments.MomentKind.oracles

    def off_at_3(kind, fp, h_max):
        out = real(kind, fp, h_max)
        if kind is wrong:
            out[3] += 1
        return out

    monkeypatch.setattr(moments.MomentKind, "oracles", off_at_3)
    bad = moments.verify_lhs_expansion(f, 6)
    assert bad and bad[0] == 3, bad
