"""Acceptance suite: one test per criterion, zero-tolerance integer equality.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and then asserts.
"""

import functools

from ksums import charsums, coset_codes as cc, field, moments, orthogroup as og
from ksums.field import binary_field

import oracles

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)
GF16 = binary_field(4)


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {num} PASS  {title}")
        return wrapper
    return deco


@criterion(1, "moment recursions reproduce brute-force moments (q=4,8; h=1..10)")
def test_criterion_1_recursions_vs_oracle():
    for fp in (GF4, GF8):
        one_dim = [cc.parse_family("dc1+", 2, fp), cc.parse_family("dc1-", 3, fp),
                   cc.parse_family("dc1-", 1, fp)]
        for f in one_dim:
            for h in range(1, 11):
                assert moments.mk_recursive(f, h) == charsums.moment(fp, 1, h), (f, h)
        for label, n in [("dc2+", 2), ("dc2-", 3)]:
            f = cc.parse_family(label, n, fp)
            for h in range(1, 11):
                assert moments.mk2_recursive(f, h) == charsums.moment(fp, 2, h), (f, h)
                assert moments.mk_even_recursive(f, h) == charsums.moment(fp, 1, 2 * h), (f, h)


@criterion(2, "n=2 and n=1 specializations: closed constants and spot moments")
def test_criterion_2_specializations():
    from fractions import Fraction

    for fp in (GF4, GF8, GF16):
        q = fp.q
        consts = cc.family_constants(cc.parse_family("dc1+", 2, fp))
        assert consts.scale == q ** 2 * (q ** 2 - 1)
        assert consts.size == q ** 2 * (q ** 2 - 1) ** 2
        for h in range(1, 11):
            assert (Fraction(q, consts.scale ** h)
                    == Fraction(q) ** (1 - 2 * h) * Fraction(q ** 2 - 1) ** -h)
        minus = cc.family_constants(cc.parse_family("dc1-", 1, fp))
        assert minus.scale == 1 and minus.size == q - 1
        assert charsums.moment(fp, 1, 1) == 1
        assert charsums.moment(fp, 1, 2) == q ** 2 - q - 1


@criterion(3, "cell character sums: enumeration equals closed form")
def test_criterion_3_cell_character_sums():
    cases = [(GF2, 1), (GF4, 1), (GF8, 1), (GF2, 2), (GF4, 2), (GF2, 3)]
    for fp, n in cases:
        for r in range(n + 1):
            for c in field.units(fp):
                brute = og.exp_sum_cell(fp, n, r, c, "brute")
                assert brute == og.exp_sum_cell(fp, n, r, c, "formula"), (fp.q, n, r, c)
    assert og.exp_sum_cell(GF2, 2, 1, 1, "brute") == 12


@criterion(4, "order bookkeeping: enumerated sizes match formulas; |O+(4,2)| = 72")
def test_criterion_4_order_bookkeeping():
    for fp, n in [(GF2, 1), (GF4, 1), (GF8, 1), (GF2, 2), (GF4, 2), (GF2, 3)]:
        counts = og.group_counts(n, fp.q)
        assert len(og.enumerate_parabolic(fp, n)) == counts["parabolic_order"]
        union = set()
        for r in range(n + 1):
            cell = og.bruhat_cell(fp, n, r)
            assert len(cell.elements) == counts["cell_orders"][r], (fp.q, n, r)
            assert len(og.a_r_subgroup(fp, n, r)) == counts["a_r_orders"][r]
            assert not union & set(cell.elements)
            union |= set(cell.elements)
        assert len(union) == counts["group_order"] == sum(counts["cell_orders"])
    # full 2^16 membership scan of 4x4 matrices over GF(2)
    union22 = set()
    for r in range(3):
        union22 |= set(og.bruhat_cell(GF2, 2, r).elements)
    scan = set(range(1 << 16)).difference(og.outside_oplus(GF2, 2, range(1 << 16)))
    assert len(scan) == 72
    assert scan == union22


ENUMERABLE_FAMILIES = ([("dc1+", 2, GF2), ("dc1+", 2, GF4), ("dc2+", 2, GF2),
                        ("dc2+", 2, GF4), ("dc1-", 3, GF2), ("dc2-", 3, GF2)]
                       + [("dc1-", 1, binary_field(r)) for r in range(1, 9)])


@criterion(5, "trace multiplicities: formulas equal histograms; exceptional values")
def test_criterion_5_trace_multiplicities():
    for label, n, fp in ENUMERABLE_FAMILIES:
        f = cc.parse_family(label, n, fp)
        assert (cc.trace_multiplicities(f, "formula")
                == cc.trace_multiplicities(f, "brute_force")), f
    for fp in (GF2, GF4, GF8, GF16):
        counts = cc.trace_multiplicities(cc.parse_family("dc1-", 1, fp))
        expected = {beta: (1 if beta == 0 else
                           2 if field.trace(fp, field.inv(fp, beta)) == 0 else 0)
                    for beta in field.elements(fp)}
        assert counts == expected
    counts22 = cc.trace_multiplicities(cc.parse_family("dc2+", 2, GF2))
    assert counts22[1] == 0 and counts22[0] == 12


@criterion(6, "code layer: weights match closed forms; kernels as claimed")
def test_criterion_6_code_layer():
    for label, n, fp in ENUMERABLE_FAMILIES:
        f = cc.parse_family(label, n, fp)
        for a in field.units(fp):
            assert cc.dual_weight(f, a, "direct") == cc.dual_weight(f, a, "formula"), (f, a)
    injective = [("dc1+", 2, GF2), ("dc1+", 2, GF4), ("dc2+", 2, GF4),
                 ("dc1-", 3, GF2), ("dc2-", 3, GF2), ("dc1-", 1, GF8),
                 ("dc1-", 1, GF16)]
    for label, n, fp in injective:
        assert cc.dual_kernel(cc.parse_family(label, n, fp)) == frozenset({0})
    exceptional = [("dc2+", 2, GF2), ("dc1-", 1, GF2), ("dc1-", 1, GF4)]
    for label, n, fp in exceptional:
        assert cc.dual_kernel(cc.parse_family(label, n, fp)) == frozenset({0, 1})


def _brute_distribution(vector):
    n = len(vector)
    out = [0] * (n + 1)
    for m in range(1 << n):
        s, w, mm, i = 0, 0, m, 0
        while mm:
            if mm & 1:
                s ^= vector[i]
                w += 1
            mm >>= 1
            i += 1
        if s == 0:
            out[w] += 1
    return out


@criterion(7, "weight distributions: symmetry, mass, transform, enumeration")
def test_criterion_7_weight_distributions():
    f8 = cc.parse_family("dc1-", 1, GF8)
    dist8 = cc.weight_distribution(cc.trace_multiplicities(f8))
    assert dist8 == dist8[::-1]
    assert sum(dist8) == 2 ** (7 - 3)
    assert dist8 == cc.weight_distribution_macwilliams(f8)
    f22 = cc.parse_family("dc1+", 2, GF2)
    dist22 = cc.weight_distribution(cc.trace_multiplicities(f22))
    assert dist22 == dist22[::-1]
    assert sum(dist22) == 2 ** (36 - 1)
    assert dist22 == cc.weight_distribution_macwilliams(f22)
    # direct 2^N enumeration for every instance of length <= 20
    short = [("dc1-", 1, GF2), ("dc1-", 1, GF4), ("dc1-", 1, GF8),
             ("dc1-", 1, GF16), ("dc2+", 2, GF2)]
    for label, n, fp in short:
        f = cc.parse_family(label, n, fp)
        assert cc.family_constants(f).size <= 20
        dist = cc.weight_distribution(cc.trace_multiplicities(f))
        assert dist == _brute_distribution(oracles.ordered_traces(f)), (label, n, fp.q)
        assert dist == dist[::-1]


@criterion(8, "power-moment identity holds on the toy code and dc1-(1,8)")
def test_criterion_8_pless():
    toy = [1, 0, 1]
    assert cc.pless_check(toy, toy, 1, 10)["ok"]
    f8 = cc.parse_family("dc1-", 1, GF8)
    dist = cc.weight_distribution(cc.trace_multiplicities(f8))
    dual = cc.dual_weight_distribution(f8)
    assert cc.pless_check(dist, dual, 4, 10)["ok"]
    assert cc.pless_check(dual, dist, 3, 10)["ok"]


@criterion(9, "identity suite: exhaustive classical identities at desk scale")
def test_criterion_9_identity_suite():
    # Weil bound and Artin-Schreier index for every supported field
    for r in range(1, 9):
        fp = binary_field(r)
        assert all(v * v <= 4 * fp.q for v in charsums.kloosterman_values(fp, 1)[1:])
        assert len(field.artin_schreier_image(fp)) == fp.q // 2
    for r in range(1, 5):
        fp = binary_field(r)
        for a in field.units(fp):
            assert charsums.verify_carlitz(fp, a)["ok"]
            for s in range(4):
                assert charsums.verify_power_invariance(fp, a, s)["ok"]
            assert charsums.verify_theta_identities(fp, a)["ok"]
        outside = min(set(field.elements(fp)) - set(field.artin_schreier_image(fp)))
        if fp.q > 2:
            for beta in field.units(fp):
                assert charsums.verify_theta_identities(fp, beta, b=outside)["ok"]
        for beta in field.elements(fp):
            for m in (1, 2):
                assert charsums.verify_twisted_sum(fp, beta, m)["ok"]
        for t in range(7):
            for a in field.units(fp):
                assert (charsums.kloosterman_gl(fp, t, a, "recursion")
                        == charsums.kloosterman_gl(fp, t, a, "closed_form"))
        if fp.r >= 2:
            assert set(charsums.kloosterman_values(fp, 1)[1:]) == charsums.kloosterman_range(fp)
    for fp, tmax in [(GF2, 3), (GF4, 2), (GF8, 2)]:
        for t in range(tmax + 1):
            for a in field.units(fp):
                assert (charsums.kloosterman_gl(fp, t, a, "brute_force")
                        == charsums.kloosterman_gl(fp, t, a, "recursion"))
