import tracemalloc
from collections import Counter

import pytest

from ksums import charsums, combinat, field, matgf, verify
from ksums.errors import BudgetError
from ksums.field import binary_field

import oracles

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)
GF16 = binary_field(4)


def test_kloosterman_examples():
    assert charsums.kloosterman(GF2, 1) == 1
    assert charsums.kloosterman(GF4, 1) == 3
    assert charsums.kloosterman(GF4, 0b10) == -1
    assert charsums.kloosterman(GF4, 0b11) == -1


def test_kloosterman_parameter_errors():
    with pytest.raises(ValueError):
        charsums.kloosterman(GF4, 0)
    with pytest.raises(ValueError):
        charsums.kloosterman(GF4, 1, c=0)
    with pytest.raises(ValueError):
        charsums.kloosterman(GF4, 1, m=0)


def test_enumeration_budget():
    fp = binary_field(8)
    with pytest.raises(BudgetError, match="m = 4, q = 256"):
        charsums.kloosterman(fp, 1, m=4)  # 256^4 = 2^32 tuples
    # the table's m levels are charged their bits: m = 3 fits, m = 300 does not
    assert len(charsums.kloosterman_values(fp, 3)) == fp.q
    with pytest.raises(BudgetError):
        charsums.kloosterman_values(fp, 300)
    with pytest.raises(BudgetError):
        charsums.moment(fp, 300, 2)


def test_values_table_parameter_errors():
    # m and c are checked before the budget, so neither a huge m nor m <= 0
    # hides them (m = 0 would otherwise be the character table itself)
    for m in (0, -1):
        with pytest.raises(ValueError):
            charsums.kloosterman_values(GF4, m)
    with pytest.raises(ValueError):
        charsums.kloosterman_value(GF4, 1, 1, 0)
    with pytest.raises(ValueError):
        charsums.kloosterman_value(binary_field(8), 1, 10 ** 9, 0)
    # m is positional with no default: a second spelling of one table is refused
    with pytest.raises(TypeError):
        charsums.kloosterman_values(GF4)
    with pytest.raises(TypeError):
        charsums.kloosterman_values(GF4, m=1)


def _direct_values(fp, m, c=1):
    return (None,) + tuple(charsums.kloosterman(fp, a, m, c) for a in field.units(fp))


def _accessor_values(fp, m, c):
    return (None,) + tuple(charsums.kloosterman_value(fp, a, m, c) for a in field.units(fp))


@pytest.mark.parametrize("r,m,c", [(3, 2, 1), (5, 3, 3), (6, 2, 2), (8, 1, 5),
                                   (7, 2, 3), (4, 4, 3)])
def test_values_table_matches_direct_sums(r, m, c):
    # the c = 1 table read at c^(m+1) a against lambda(c .) from mul_table row c
    fp = binary_field(r)
    assert _accessor_values(fp, m, c) == _direct_values(fp, m, c)


def test_values_table_matches_direct_sums_alt_moduli():
    for r, modulus in verify.ALT_MODULI.items():
        fp = binary_field(r, modulus)
        for m in (1, 2):
            assert charsums.kloosterman_values(fp, m) == _direct_values(fp, m), (r, m)


@pytest.mark.parametrize("r, modulus",
                         sorted(field.DEFAULT_MODULI.items()) + sorted(verify.ALT_MODULI.items()))
def test_values_table_matches_loop_oracle(r, modulus):
    # the Kronecker products against m levels of (q-1)^2 mul_table lookups
    fp = binary_field(r, modulus)
    for c in sorted({1, 2, fp.q - 1} & set(field.units(fp))):
        for m in (1, 2, 3):
            assert _accessor_values(fp, m, c) == oracles.kloosterman_values(fp, m, c), (m, c)


@pytest.mark.parametrize("r, m_max", [(2, 3527), (8, 218)])
def test_values_table_charge_boundary(r, m_max):
    # m levels of 2q digits, each as wide as 4 (q-1) (m+1) q^(m/2), against
    # TRANSFORM_BIT_BUDGET: m_max is built, m_max + 1 refused before any level
    fp = binary_field(r)
    table = charsums.kloosterman_values.__wrapped__(fp, m_max)
    assert table[0] is None and sum(table[1:]) == (-1) ** (m_max + 1)
    assert all(v * v <= (m_max + 1) ** 2 * fp.q ** m_max for v in table[1:])
    with pytest.raises(BudgetError, match=f"m = {m_max + 1}, q = {fp.q}: .* over budget"):
        charsums.kloosterman_values(fp, m_max + 1)


def test_values_table_m3_spot_checks():
    fp = binary_field(6)
    table = charsums.kloosterman_values(fp, 3)
    for a in (1, 0b10, 0b100101):
        assert table[a] == charsums.kloosterman(fp, a, 3)


def test_moment_examples():
    assert charsums.moment(GF4, 1, 1) == 1
    assert charsums.moment(GF4, 1, 2) == 11
    for fp in (GF2, GF4, GF8, GF16):
        assert charsums.moment(fp, 1, 0) == fp.q - 1
        assert charsums.moment(fp, 2, 0) == fp.q - 1
        assert charsums.moment(fp, 1, 1) == 1
        assert charsums.moment(fp, 1, 2) == fp.q ** 2 - fp.q - 1
    with pytest.raises(ValueError):
        charsums.moment(GF4, 1, -1)


def test_power_moments_match_moment():
    # one pass over the values table against a plain power sum per exponent
    # step h (moment is entry h of a pass, so it is not the reference here);
    # the sums read through the accessor at c are the moments at c = 1
    for fp in (GF2, GF4, GF8, binary_field(5)):
        for m in (1, 2, 3):
            for c in {1, fp.q - 1}:
                vals = _accessor_values(fp, m, c)[1:]
                for step in (1, 2):
                    expected = [sum(v ** (step * h) for v in vals) for h in range(9)]
                    assert charsums.power_moments(fp, m, 8, step) == expected, (fp.q, m, c, step)
                    assert [charsums.moment(fp, m, step * h) for h in range(9)] == expected


def test_moment_scale_invariance():
    # lambda(c .) built from mul_table row c, with no reindex, takes the values
    # of the c = 1 table with the same multiplicities, so every moment agrees
    for fp in (GF4, GF8):
        for c in field.units(fp):
            for m in (1, 2):
                assert (Counter(oracles.kloosterman_values(fp, m, c)[1:])
                        == Counter(charsums.kloosterman_values(fp, m)[1:])), (fp.q, c, m)


def test_weil_bound_exhaustive():
    for r in range(1, 9):
        fp = binary_field(r)
        for v in charsums.kloosterman_values(fp, 1)[1:]:
            assert v * v <= 4 * fp.q


def test_kloosterman_gl_examples():
    assert charsums.kloosterman_gl(GF4, 0, 1) == 1
    assert charsums.kloosterman_gl(GF4, 1, 1) == charsums.kloosterman(GF4, 1)
    assert charsums.kloosterman_gl(GF4, 2, 1) == 84
    with pytest.raises(ValueError):
        charsums.kloosterman_gl(GF4, -1, 1)
    with pytest.raises(ValueError):
        charsums.kloosterman_gl(GF4, 2, 0)
    with pytest.raises(ValueError):
        charsums.kloosterman_gl(GF4, 2, 1, method="guess")


def test_kloosterman_gl_three_routes():
    # brute force is enumerable at (t <= 3, q = 2) and (t <= 2, q in {4, 8})
    cases = [(GF2, 3), (GF4, 2), (GF8, 2)]
    for fp, tmax in cases:
        for t in range(tmax + 1):
            for a in field.units(fp):
                rec = charsums.kloosterman_gl(fp, t, a, "recursion")
                assert rec == charsums.kloosterman_gl(fp, t, a, "closed_form")
                assert rec == charsums.kloosterman_gl(fp, t, a, "brute_force")
                assert rec == charsums.kloosterman_gl(fp, t, a, "all")


def test_kloosterman_gl_closed_form_matches_recursion():
    for r in range(1, 5):
        fp = binary_field(r)
        for t in range(7):
            for a in field.units(fp):
                assert (charsums.kloosterman_gl(fp, t, a, "recursion")
                        == charsums.kloosterman_gl(fp, t, a, "closed_form"))


def test_kloosterman_gl_scaled_character():
    # brute force with psi = lambda(c .) agrees with the formula routes
    for fp in (GF4, GF8):
        for c in field.units(fp):
            for a in field.units(fp):
                assert (charsums.kloosterman_gl(fp, 2, a, "brute_force", c)
                        == charsums.kloosterman_gl(fp, 2, a, "recursion", c))


def test_kloosterman_gl_tables_match_single_sums():
    # a formula route's table runs once per distinct K value and brute force
    # over one histogram; entry c^2 a is the sum at lambda(c .)
    for fp, t in [(GF2, 3), (GF4, 2), (GF8, 2), (GF16, 2), (GF8, 4)]:
        mt = field.mul_table(fp)
        for method in charsums.gl_routes(t, fp.q):
            table = charsums.kloosterman_gl_table(fp, t, method)
            assert table[0] is None and len(table) == fp.q
            for c in field.units(fp):
                for a in field.units(fp):
                    assert charsums.kloosterman_gl(fp, t, a, method, c) == table[mt[c][mt[c][a]]]


def test_kloosterman_gl_scale_is_a_reindex():
    # the scaled character summed directly over the histogram of
    # (Tr w, Tr w^-1): lambda(c Tr w + c a Tr w^-1), with no reindex
    for fp, t in [(GF4, 2), (GF8, 2), (GF2, 3)]:
        mt, lam = field.mul_table(fp), field.char_table(fp)
        hist = charsums._gl_trace_histogram(fp, t)
        for c in field.units(fp):
            for a in field.units(fp):
                direct = sum(count * lam[mt[c][tr ^ mt[a][trinv]]]
                             for (tr, trinv), count in hist)
                assert charsums.kloosterman_gl(fp, t, a, "all", c) == direct, (fp.q, t, a, c)


def test_kloosterman_gl_table_parameters():
    with pytest.raises(ValueError):
        charsums.kloosterman_gl_table(GF4, True, "recursion")
    with pytest.raises(ValueError):
        charsums.kloosterman_gl_table(GF4, 2, "all")
    with pytest.raises(BudgetError, match=r"K_GL\(5\) over GF\(2\) by brute_force"):
        charsums.kloosterman_gl_table(GF2, 5, "brute_force")
    # one run fits (r t^3 = 8 * 200^3 bits), but not one per each of the 16 values
    assert charsums.gl_routes(200, 256) == ("recursion",)
    with pytest.raises(BudgetError, match=r"K_GL\(200\) table over GF\(256\), 16 runs"):
        charsums.kloosterman_gl_table(binary_field(8), 200, "recursion")


def test_kloosterman_gl_brute_budget():
    # |GL(5,2)| ~ 10^7: gl_routes does not list brute_force, so kloosterman_gl refuses it
    with pytest.raises(BudgetError, match=r"K_GL\(5\) over GF\(2\) by brute_force: "
                                          r"over budget 1000000"):
        charsums.kloosterman_gl(GF2, 5, 1, "brute_force")


def test_gl_brute_histogram_matches_recursion():
    # the brute-force shapes (t, q) = (4, 2) and (2, 16); q = 2 has only c = 1
    for fp, t, cs in [(GF2, 4, (1,)), (GF16, 2, (1, 0b1011))]:
        hist = charsums._gl_trace_histogram(fp, t)
        assert sum(count for _, count in hist) == combinat.gl_order(t, fp.q)
        assert len(hist) <= fp.q ** 2
        for c in cs:
            for a in field.units(fp):
                assert (charsums.kloosterman_gl(fp, t, a, "brute_force", c)
                        == charsums.kloosterman_gl(fp, t, a, "recursion", c)), (fp.q, t, a, c)


def test_gl_histogram_matches_full_enumeration():
    # the bit-sliced pass counts the pairs of every invertible matrix of the
    # product scan and its Gauss-Jordan inverse, traced as tuple matrices;
    # the second moduli put the plane product's reduction outside the
    # default basis
    alt = [binary_field(r, verify.ALT_MODULI[r]) for r in (3, 4)]
    for fp, t in [(GF2, 3), (GF4, 2), (GF8, 2), (GF16, 2), (alt[0], 2), (alt[1], 2)]:
        mats = (oracles.unpack_mat(fp, t, key) for key in oracles.invertible_keys(fp, t))
        full = Counter((oracles.mat_trace(m), oracles.mat_trace(oracles.mat_inv(fp, m)))
                       for m in mats)
        assert dict(charsums._gl_trace_histogram(fp, t)) == full, (fp.q, fp.modulus, t)


def test_gl_histogram_counts_gl_at_every_brute_force_shape():
    # every shape that gl_routes admits brute force at, t >= 1: the invertible
    # matrices of each slice sum to |GL(t,q)|
    shapes = [(binary_field(r), 1) for r in range(1, 9)]
    shapes += [(binary_field(r), 2) for r in range(1, 5)]
    shapes += [(GF2, 3), (GF4, 3), (GF2, 4)]
    assert {(fp.q, t) for fp, t in shapes} == {
        (1 << r, t) for r in range(1, 9) for t in range(1, 6)
        if "brute_force" in charsums.gl_routes(t, 1 << r)}
    for fp, t in shapes:
        hist = charsums._gl_trace_histogram(fp, t)
        assert sum(count for _, count in hist) == combinat.gl_order(t, fp.q), (fp.q, t)
        assert len(hist) <= fp.q ** 2


def test_gl_brute_force_matches_recursion_at_every_scale():
    # GL(3,4) and GL(4,2), each summed straight over its histogram at the
    # scaled character lambda(c .), against the recursion's table at c^2 a
    for fp, t in [(GF4, 3), (GF2, 4)]:
        mt, lam = field.mul_table(fp), field.char_table(fp)
        hist = charsums._gl_trace_histogram(fp, t)
        table = charsums.kloosterman_gl_table(fp, t, "recursion")
        assert charsums.kloosterman_gl_table(fp, t, "brute_force") == table
        for c in field.units(fp):
            for a in field.units(fp):
                direct = sum(count * lam[mt[c][tr ^ mt[a][trinv]]] for (tr, trinv), count in hist)
                assert direct == table[mt[c][mt[c][a]]], (fp.q, t, a, c)


def test_gl_brute_force_at_t0_builds_no_histogram(monkeypatch):
    # K_GL(0) = 1 by convention, with no matrix to count
    def refuse(*args):
        raise AssertionError("no histogram at t = 0")
    monkeypatch.setattr(charsums, "_gl_trace_histogram", refuse)
    monkeypatch.setattr(charsums, "kloosterman_gl_table",
                        charsums.kloosterman_gl_table.__wrapped__)  # uncached
    for fp in (GF2, GF16):
        assert charsums.kloosterman_gl_table(fp, 0, "brute_force") == (None,) + (1,) * (fp.q - 1)
        assert charsums.kloosterman_gl(fp, 0, 1, "brute_force") == 1


def test_gl_histogram_streams_the_search():
    # the matrices are counted a slice at a time: no plane of all 65,536
    # 4 x 4 matrices over GF(2), nor any list of the 20,160 keys of GL(4,2),
    # is held, which alone would take 8 bytes a key
    first = charsums._gl_trace_histogram(GF2, 4)  # the field tables, built outside the trace
    tracemalloc.start()
    try:
        hist = charsums._gl_trace_histogram(GF2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist == first
    assert peak < 8 * combinat.gl_order(4, 2)


@pytest.mark.parametrize("fp,t", [(GF2, 4), (GF16, 2)])
def test_gl_histogram_is_built_once_per_request(monkeypatch, fp, t):
    # a brute-force table reads one histogram for every a, and so does one
    # sum by every route
    calls = []
    histogram = charsums._gl_trace_histogram
    monkeypatch.setattr(charsums, "_gl_trace_histogram",
                        lambda *args: calls.append(args) or histogram(*args))
    monkeypatch.setattr(charsums, "kloosterman_gl_table",
                        charsums.kloosterman_gl_table.__wrapped__)  # uncached
    table = charsums.kloosterman_gl_table(fp, t, "brute_force")
    assert calls == [(fp, t)]
    assert table == charsums.kloosterman_gl_table(fp, t, "recursion")
    calls.clear()
    charsums.kloosterman_gl(fp, t, 1, "all")
    assert calls == [(fp, t)]


def test_gl_closed_form_matches_recursion_at_the_cap():
    # t = 29 is the largest t with F(t+1) <= GL_BRUTE_BUDGET
    assert charsums.gl_routes(29, 4) == ("recursion", "closed_form")
    for fp in (GF2, GF4):
        for a in field.units(fp):
            assert (charsums.kloosterman_gl(fp, 29, a, "closed_form")
                    == charsums.kloosterman_gl(fp, 29, a, "recursion")), (fp.q, a)


def test_gl_routes_and_closed_form_budget():
    # the closed form sums F(t+1) tuples: F(30) = 832040 fits, F(31) = 1346269 does not
    assert charsums.gl_routes(4, 2) == charsums.GL_METHODS
    assert charsums.gl_routes(2, 32) == ("recursion", "closed_form")  # |GL(2,32)| > 10^6
    assert charsums.gl_routes(29, 2) == ("recursion", "closed_form")
    assert charsums.gl_routes(30, 2) == ("recursion",)
    with pytest.raises(BudgetError, match=r"K_GL\(30\) over GF\(2\) by closed_form: "
                                          r"over budget 1000000"):
        charsums.kloosterman_gl(GF2, 30, 1, "closed_form")
    assert charsums.kloosterman_gl(GF2, 30, 1, "all") == charsums.kloosterman_gl(
        GF2, 30, 1, "recursion")


def test_gl_recursion_charge_boundary():
    # r t^3 bits against TRANSFORM_BIT_BUDGET: the largest t admitted is 464
    # at r = 1, 292 at r = 4 and 232 at r = 8; past it no route is listed
    for q, t in [(2, 464), (16, 292), (256, 232)]:
        assert charsums.gl_routes(t, q) == ("recursion",)
        assert charsums.gl_routes(t + 1, q) == ()
    # CI's t = 29 and the benchmark's t = 24 at r = 8 keep the closed form
    assert charsums.gl_routes(29, 256) == charsums.gl_routes(24, 256) == ("recursion", "closed_form")
    for method in charsums.GL_METHODS + ("all",):
        with pytest.raises(BudgetError, match=r"K_GL\(465\) .* over budget 100000000"):
            charsums.kloosterman_gl(GF2, 465, 1, method)


def test_carlitz_identity():
    # K_2(lambda;1) = K(lambda;1)^2 - q: 3^2 - 4 over GF(4), 1^2 - 2 over GF(2)
    assert charsums.kloosterman_values(GF4, 2)[1] == 5
    assert charsums.kloosterman_values(GF2, 2)[1] == -1


def test_power_invariance():
    # omega^2 = omega + 1 in GF(4); over GF(8) the direct sums, not the table
    assert charsums.kloosterman_values(GF4, 1)[0b10] == charsums.kloosterman_values(GF4, 1)[0b11]
    for a in field.units(GF8):
        assert charsums.kloosterman(GF8, field.power(GF8, a, 2)) == charsums.kloosterman(GF8, a)


def _theta_sum(fp, beta, b, alphas):
    # sum of lambda(beta/(alpha^2 + alpha + b)) over alphas
    denoms = (field.mul(fp, x, x) ^ x ^ b for x in alphas)
    return sum(field.additive_char(fp, field.mul(fp, beta, field.inv_table(fp)[d])) for d in denoms)


def test_theta_identities():
    # part (a) over alpha outside {0,1}: 2 = K(lambda;1) - 1 over GF(4)
    assert _theta_sum(GF4, 1, 0, (0b10, 0b11)) == 2
    # part (b): b = omega is outside the Artin-Schreier image {0,1} of GF(4)
    for beta in field.units(GF4):
        k = charsums.kloosterman(GF4, beta)
        assert _theta_sum(GF4, beta, 0b10, field.elements(GF4)) == -k - 1


def test_twisted_sums():
    # sum over a != 0 of lambda(a beta) K(lambda;a) over GF(4): 1 at beta = 0,
    # and q lambda(1) + 1 = 5 at beta = 1
    vals = charsums.kloosterman_values(GF4, 1)
    for beta, total in ((0, 1), (1, 5)):
        assert sum(field.additive_char(GF4, field.mul(GF4, a, beta)) * vals[a]
                   for a in field.units(GF4)) == total


def test_kloosterman_value_range():
    # K(lambda; .) takes every t = -1 (mod 4) with t^2 < 4q once r >= 2
    assert set(charsums.kloosterman_values(GF4, 1)[1:]) == {-1, 3}
    assert set(charsums.kloosterman_values(GF8, 1)[1:]) == {-5, -1, 3}
    assert set(charsums.kloosterman_values(GF16, 1)[1:]) == {-5, -1, 3, 7}
