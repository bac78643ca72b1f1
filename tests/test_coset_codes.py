import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ksums import charsums, coset_codes as cc, field, orthogroup, verify
from ksums.combinat import binom
from ksums.errors import BudgetError
from ksums.field import binary_field

import oracles
from oracles import stirling2

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)
GF16 = binary_field(4)


def fam(label, n, fp):
    return cc.parse_family(label, n, fp)


def test_family_validation():
    with pytest.raises(ValueError):
        fam("dc1+", 3, GF2)  # '+' needs even n
    with pytest.raises(ValueError):
        fam("dc1-", 2, GF2)
    with pytest.raises(ValueError):
        fam("dc2-", 1, GF2)  # needs n >= 3
    with pytest.raises(ValueError):
        fam("dc3+", 2, GF2)
    f = fam("dc2-", 3, GF4)
    assert f.cell_index == 1 and f.label == "dc2-"


def test_family_validation_matches_paper_ranges():
    # '+' families take even n >= 2, dc1- odd n >= 1 and dc2- odd n >= 3
    minimum = {"dc1+": 2, "dc1-": 1, "dc2+": 2, "dc2-": 3}
    for label in cc.FAMILY_LABELS:
        for n in range(-2, 13):
            valid = n >= minimum[label] and (n % 2 == 0) == (label[3] == "+")
            if valid:
                assert fam(label, n, GF2).n == n
            else:
                with pytest.raises(ValueError):
                    fam(label, n, GF2)


def test_constants_examples():
    for fp in (GF2, GF4):
        q = fp.q
        c = cc.family_constants(fam("dc1+", 2, fp))
        assert c.scale == q * q * (q * q - 1)
        assert c.cofactor == q * q - 1
        assert c.size == q * q * (q * q - 1) ** 2
    for fp in (GF2, GF4, GF8):
        c = cc.family_constants(fam("dc1-", 1, fp))
        assert (c.scale, c.cofactor, c.size) == (1, fp.q - 1, fp.q - 1)
    assert cc.family_constants(fam("dc2+", 2, GF2)).size == 12


def test_constants_match_cell_order_formula():
    for fp in (GF2, GF4, GF8):
        for n in range(1, 5):
            for label in cc.FAMILY_LABELS:
                try:
                    f = fam(label, n, fp)
                except ValueError:
                    continue
                consts = cc.family_constants(f)
                assert consts.size == orthogroup.cell_order(n, f.cell_index, fp.q)
                assert consts.scale * consts.cofactor == consts.size


def test_constants_match_paper_products():
    # the cell-model constants against the paper's explicit products
    for r in (1, 2, 3, 4, 8):
        fp = binary_field(r)
        for n in range(1, 10):
            for label in cc.FAMILY_LABELS:
                try:
                    f = fam(label, n, fp)
                except ValueError:
                    continue
                consts = cc.family_constants(f)
                assert (consts.scale, consts.cofactor) == verify._paper_constants(f), f


def test_cofactor_can_be_non_integral():
    c = cc.family_constants(fam("dc1-", 3, GF4))
    assert c.cofactor == Fraction((4 ** 3 - 1) * (4 ** 2 - 1), 4)
    assert c.cofactor.denominator == 4
    assert isinstance(c.size, int) and isinstance(c.scale, int)


def test_trace_multiplicities_dc1_minus_n1():
    # beta = 0 -> 1; tr(1/beta) = 0 -> 2; tr(1/beta) = 1 -> 0
    for fp in (GF2, GF4, GF8, GF16):
        counts = cc.trace_multiplicities(fam("dc1-", 1, fp))
        for beta, cnt in counts.items():
            if beta == 0:
                assert cnt == 1
            elif field.trace(fp, field.inv(fp, beta)) == 0:
                assert cnt == 2
            else:
                assert cnt == 0


def test_trace_multiplicities_examples():
    assert cc.trace_multiplicities(fam("dc2+", 2, GF2)) == {0: 12, 1: 0}
    assert cc.trace_multiplicities(fam("dc1+", 2, GF2)) == {0: 24, 1: 12}


ENUMERABLE = [("dc1+", 2, GF2), ("dc1+", 2, GF4), ("dc2+", 2, GF2), ("dc2+", 2, GF4),
              ("dc1-", 1, GF2), ("dc1-", 1, GF4), ("dc1-", 1, GF8), ("dc1-", 1, GF16),
              ("dc1-", 3, GF2), ("dc2-", 3, GF2)]


@pytest.mark.parametrize("label,n,fp", ENUMERABLE)
def test_formula_vs_enumeration(label, n, fp):
    f = fam(label, n, fp)
    assert orthogroup.enumerable(fp, n)
    formula = cc.trace_multiplicities(f, "formula")
    brute = cc.trace_multiplicities(f, "brute_force")
    assert formula == brute
    consts = cc.family_constants(f)
    assert sum(formula.values()) == consts.size
    weighted = 0
    for beta, cnt in formula.items():
        if cnt % 2:
            weighted ^= beta
    assert weighted == 0


@pytest.mark.parametrize("label,n,fp", ENUMERABLE)
def test_dual_weights_direct_vs_formula(label, n, fp):
    f = fam(label, n, fp)
    for a in field.units(fp):
        assert cc.dual_weight(f, a, "direct") == cc.dual_weight(f, a, "formula")


# the five families the benchmark's group-codes workload asks for with --mode direct
WEIGHTS_DIRECT = [("dc1-", 1, binary_field(8)), ("dc1+", 2, GF4), ("dc2+", 2, GF4),
                  ("dc1-", 3, GF2), ("dc2-", 3, GF2)]


@pytest.mark.parametrize("label,n,fp", WEIGHTS_DIRECT)
def test_direct_dual_weight_counts_the_codeword(label, n, fp):
    # the trace histogram's count against the ones of the materialized vector
    f = fam(label, n, fp)
    for a in field.units(fp):
        assert cc.dual_weight(f, a, "direct") == sum(oracles.dual_codeword(f, a)), a


def test_dual_weight_examples():
    assert cc.dual_weight(fam("dc1+", 2, GF2), 1) == 12
    for fp in (GF4, GF8):
        f = fam("dc1-", 1, fp)
        for a in field.units(fp):
            expect = (fp.q - 1 - charsums.kloosterman(fp, a)) // 2
            assert cc.dual_weight(f, a) == expect
    with pytest.raises(ValueError):
        cc.dual_weight(fam("dc1+", 2, GF2), 0)


def test_codim2_dual_weight_matches_two_dimensional_kloosterman():
    # Carlitz's K_2 = K^2 - q turns the cell character sum into scale (q^2 + K_2)
    for n, fp in ((2, GF4), (2, GF8), (3, GF4), (4, GF2)):
        f = fam("dc2+" if n % 2 == 0 else "dc2-", n, fp)
        consts = cc.family_constants(f)
        k2 = charsums.kloosterman_values(fp, 2)
        for a in field.units(fp):
            num = consts.size - consts.scale * (fp.q ** 2 + k2[a])
            assert num % 2 == 0 and cc.dual_weight(f, a) == num // 2, (f, a)


def test_dual_weight_formula_only_family_runs():
    # dc2-(3,4) is far beyond materialization; formula mode still works
    f = fam("dc2-", 3, GF4)
    assert not orthogroup.enumerable(GF4, 3)
    w = cc.dual_weight(f, 1, "formula")
    assert w > 0
    with pytest.raises(BudgetError):
        orthogroup.bruhat_cell(GF4, 3, f.cell_index)


def test_dual_codeword_basics():
    f = fam("dc1-", 1, GF8)
    assert oracles.dual_codeword(f, 0) == (0,) * 7
    # additive: c(a) + c(b) = c(a+b)
    for a in field.elements(GF8):
        for b in field.elements(GF8):
            ca, cb = oracles.dual_codeword(f, a), oracles.dual_codeword(f, b)
            assert tuple(x ^ y for x, y in zip(ca, cb)) == oracles.dual_codeword(f, a ^ b)


def test_kernels_match_claimed_regimes():
    trivial = [("dc1+", 2, GF2), ("dc1+", 2, GF4), ("dc2+", 2, GF4),
               ("dc1-", 1, GF8), ("dc1-", 1, GF16), ("dc1-", 3, GF2), ("dc2-", 3, GF2),
               ("dc2-", 3, GF4)]
    for label, n, fp in trivial:
        assert cc.dual_kernel(fam(label, n, fp)) == frozenset({0})
    exceptional = [("dc2+", 2, GF2), ("dc1-", 1, GF2), ("dc1-", 1, GF4)]
    for label, n, fp in exceptional:
        assert cc.dual_kernel(fam(label, n, fp)) == frozenset({0, 1})


def test_nonzero_codewords_under_injectivity():
    f = fam("dc1-", 1, GF8)
    for a in field.units(GF8):
        assert any(oracles.dual_codeword(f, a))


def brute_distribution(vector, j_cap=None):
    """Independent oracle: scan all 2^N binary vectors orthogonal to vector."""
    n = len(vector)
    out = [0] * (n + 1)
    for m in range(1 << n):
        s = 0
        w = 0
        mm, i = m, 0
        while mm:
            if mm & 1:
                s ^= vector[i]
                w += 1
            mm >>= 1
            i += 1
        if s == 0:
            out[w] += 1
    return out if j_cap is None else out[:j_cap + 1]


def test_weight_distribution_degenerate():
    assert cc.weight_distribution({0: 1}) == [1, 1]
    # this is exactly the q=2 codim-1 n=1 family: a length-1 code
    f = fam("dc1-", 1, GF2)
    assert cc.weight_distribution(cc.trace_multiplicities(f)) == [1, 1]


def test_weight_distribution_dc1_minus_8():
    f = fam("dc1-", 1, GF8)
    counts = cc.trace_multiplicities(f)
    dist = cc.weight_distribution(counts)
    assert dist == [1, 1, 3, 3, 3, 3, 1, 1]
    assert dist == brute_distribution(oracles.ordered_traces(f))
    assert sum(dist) == 2 ** (7 - 3)
    assert dist == dist[::-1]
    assert cc.weight_distribution(counts, j_max=2) == dist[:3]


def test_weight_distribution_brute_agreement_small_families():
    for fp in (GF4, GF16):
        f = fam("dc1-", 1, fp)
        dist = cc.weight_distribution(cc.trace_multiplicities(f))
        assert dist == brute_distribution(oracles.ordered_traces(f))


def test_weight_distribution_dc1_plus_2_2():
    f = fam("dc1+", 2, GF2)
    dist = cc.weight_distribution(cc.trace_multiplicities(f))
    assert dist[0] == 1
    assert sum(dist) == 2 ** 35
    assert dist == dist[::-1]
    assert dist == cc.weight_distribution_macwilliams(f)


def test_weight_distribution_long_code_routes_agree():
    # N = 720 is far beyond the 2^N oracle; the multiplicity and
    # Kloosterman-weight routes must still agree
    f = fam("dc2+", 2, GF4)
    dist = cc.weight_distribution(cc.trace_multiplicities(f))
    assert len(dist) == 721 and dist == dist[::-1]
    assert dist == cc.weight_distribution_macwilliams(f)
    assert cc.weight_distribution(cc.trace_multiplicities(f), j_max=10) == dist[:11]


def test_weight_distribution_ordering_independence():
    f = fam("dc1-", 1, GF8)
    vec = list(oracles.ordered_traces(f))
    ref = brute_distribution(tuple(vec))
    perm = vec[::-1]
    rot = vec[3:] + vec[:3]
    assert brute_distribution(tuple(perm)) == ref
    assert brute_distribution(tuple(rot)) == ref
    assert cc.weight_distribution(cc.trace_multiplicities(f)) == ref


def test_weight_distribution_budget():
    with pytest.raises(BudgetError):
        cc.weight_distribution({0: 10 ** 4 + 1})
    assert cc.weight_distribution({0: 10 ** 4 + 1}, j_max=1) == [1, 10 ** 4 + 1]
    with pytest.raises(BudgetError):  # the cap bounds min(j_max, length), not the length
        cc.weight_distribution({0: 10 ** 4 + 1}, j_max=10 ** 4 + 1)
    assert cc.weight_distribution({0: 3}, j_max=10 ** 6) == [1, 3, 3, 1]
    # the work budget: j min(j bitlen(N), N) bits per weight; a full
    # distribution at the cap needs N^2 and fits, a long code's truncation
    # at j = 1000 needs 1000 x 1000 x 101 and does not
    full = cc.weight_distribution({0: 10 ** 4})
    assert len(full) == 10 ** 4 + 1 and full[5000] == binom(10 ** 4, 5000)
    with pytest.raises(BudgetError, match="budget"):
        cc.weight_distribution({0: 2 ** 100}, j_max=1000)
    assert cc.weight_distribution({0: 2 ** 100}, j_max=995)[995] == binom(2 ** 100, 995)
    with pytest.raises(ValueError):
        cc.weight_distribution({0: -1})
    with pytest.raises(ValueError):
        cc.weight_distribution({0: 3}, j_max=-1)


@st.composite
def multiplicity_maps(draw):
    fp = draw(st.sampled_from([GF2, GF4, GF8]))
    counts = {b: draw(st.integers(0, 4)) for b in field.elements(fp)}
    # restore the zero weighted-sum invariant that real trace maps satisfy:
    # bumping the current parity-weighted sum's slot by one cancels it
    weighted = 0
    for beta, cnt in counts.items():
        if cnt % 2:
            weighted ^= beta
    if weighted:
        counts[weighted] += 1
    return fp, counts


@given(multiplicity_maps())
@settings(max_examples=40, deadline=None)
def test_weight_distribution_matches_brute_enumeration(fp_counts):
    fp, counts = fp_counts
    total = sum(counts.values())
    if total > 14:
        counts = {b: min(c, 2) for b, c in counts.items()}
        total = sum(counts.values())
    vector = tuple(b for b, c in sorted(counts.items()) for _ in range(c))
    dist = cc.weight_distribution(counts)
    assert dist == brute_distribution(vector)
    assert dist[0] == 1
    weighted = 0
    for beta, cnt in counts.items():
        if cnt % 2:
            weighted ^= beta
    if weighted == 0:
        assert dist == dist[::-1]


def test_macwilliams_dc1_minus_8():
    f = fam("dc1-", 1, GF8)
    assert cc.weight_distribution_macwilliams(f) == [1, 1, 3, 3, 3, 3, 1, 1]


def test_macwilliams_refuses_a_transform_over_budget():
    # length 254,016: a full transform charges N^2 bits, over TRANSFORM_BIT_BUDGET
    f = fam("dc1+", 2, GF8)
    assert cc.family_constants(f).size == 254016
    with pytest.raises(BudgetError, match="over budget 100000000"):
        cc.weight_distribution_macwilliams(f)


def test_macwilliams_toy_self_dual():
    # {00, 11}: transform of (1,0,1) with |dual| = 2 reproduces (1,0,1)
    weights = {0: 1, 2: 1}
    out = []
    for j in range(3):
        acc = sum(mult * sum((-1) ** i * binom(w, i) * binom(2 - w, j - i)
                             for i in range(j + 1))
                  for w, mult in weights.items())
        assert acc % 2 == 0
        out.append(acc // 2)
    assert out == [1, 0, 1]


def test_dual_weight_distribution_counts_distinct_codewords():
    # dc1-(1,4) has a kernel of size 2, so c(a) takes each value twice
    for f in (fam("dc1-", 1, GF4), fam("dc1-", 1, GF8)):
        words = {oracles.dual_codeword(f, a) for a in field.elements(f.fp)}
        expected = [0] * (cc.family_constants(f).size + 1)
        for word in words:
            expected[sum(word)] += 1
        assert cc.dual_weight_distribution(f) == expected, f
    assert len(cc.dual_kernel(fam("dc1-", 1, GF4))) == 2


def test_pless_toy_code():
    toy = [1, 0, 1]
    rep = cc.pless_check(toy, toy, 1, 10)
    assert rep["ok"], rep
    assert len(rep["lhs"]) == len(rep["rhs"]) == 11
    assert rep["lhs"][1] == 2


def test_pless_dc1_minus_8_both_orientations():
    f = fam("dc1-", 1, GF8)
    dist = cc.weight_distribution(cc.trace_multiplicities(f))
    dual = cc.dual_weight_distribution(f)
    assert cc.pless_check(dist, dual, 7 - 3, 10)["ok"]
    assert cc.pless_check(dual, dist, 3, 10)["ok"]


def test_pless_h0_is_total_mass():
    toy = [1, 0, 1]
    rep = cc.pless_check(toy, toy, 1, 0)
    assert rep["lhs"] == [2] == rep["rhs"]


def test_pless_parameter_errors():
    with pytest.raises(ValueError):
        cc.pless_check([1, 0], [1, 0, 1], 1, 1)
    with pytest.raises(ValueError):
        cc.pless_check([1, 0, 1], [1, 0, 1], 1, -1)


def test_pless_check_budget_boundary(monkeypatch):
    # a length-2 code: the charge is h_max^2 (h_max + 2) bits, so 463 is the
    # largest h_max within TRANSFORM_BIT_BUDGET
    toy = [1, 0, 1]
    assert cc.pless_check(toy, toy, 1, 463)["ok"]

    def no_work(*args):
        raise AssertionError("the pass ran before the charge")

    monkeypatch.setattr(cc, "pless_sums", no_work)
    with pytest.raises(BudgetError, match="h = 464 of a length-2 code: .* over budget 100000000"):
        cc.pless_check(toy, toy, 1, 464)


@st.composite
def truncated_distributions(draw):
    """(n, h_max, w_0..w_min(n,h_max)): short codes and codes as long as q = 256's."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(10 ** 12, 10 ** 15)))
    h_max = draw(st.integers(0, 16))
    size = min(n, h_max) + 1
    return n, h_max, draw(st.lists(st.integers(0, 10 ** 6), min_size=size, max_size=size))


@given(truncated_distributions())
@example((3, 10, [1, 0, 2, 5]))  # h_max > n: terms with t > n vanish
@example((10 ** 14, 0, [1]))
def test_pless_sums_match_the_stirling_double_sum(case):
    n, h_max, w = case
    expected = [sum((-1) ** j * w[j] * sum(math.factorial(t) * stirling2(h, t) * 2 ** (h - t)
                                           * binom(n - j, n - t) for t in range(j, h + 1))
                    for j in range(min(n, h) + 1))
                for h in range(h_max + 1)]
    assert cc.pless_sums(w, n, h_max) == expected


def test_codim2_multiplicities_group_by_kloosterman_value():
    # for the codim-2 families N(beta) is constant on classes with equal
    # K(lambda;1/beta) = tau and equals (size + scale(q tau - q^2 - 1))/q
    for fp, label, n in [(GF4, "dc2+", 2), (GF4, "dc2-", 3), (GF8, "dc2-", 3)]:
        f = fam(label, n, fp)
        consts = cc.family_constants(f)
        counts = cc.trace_multiplicities(f)
        by_tau = {}
        for beta in field.units(fp):
            tau = charsums.kloosterman(fp, field.inv(fp, beta))
            by_tau.setdefault(tau, set()).add(counts[beta])
        for tau, vals in by_tau.items():
            assert tau in charsums.kloosterman_range(fp)
            expected = (consts.size + consts.scale * (fp.q * tau - fp.q ** 2 - 1)) // fp.q
            assert vals == {expected}, (label, fp.q, tau)


def test_membership_count_identity():
    # q * N(beta) = |cell| + sum_a lambda(a beta) * (cell character sum at a)
    for label, n, fp in [("dc1+", 2, GF2), ("dc1-", 1, GF8), ("dc2+", 2, GF4)]:
        f = fam(label, n, fp)
        counts = cc.trace_multiplicities(f)
        size = cc.family_constants(f).size
        lam = field.char_table(fp)
        for beta in field.elements(fp):
            rhs = size + sum(
                lam[field.mul(fp, a, beta)]
                * orthogroup.exp_sum_cell(fp, f.n, f.cell_index, a)
                for a in field.units(fp))
            assert fp.q * counts[beta] == rhs
