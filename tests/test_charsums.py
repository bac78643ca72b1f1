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


def test_gl_histogram_over_scalar_classes_matches_full_enumeration():
    # spreading the class counts over (u Tr w, u^-1 Tr w^-1) gives the counts
    # over every matrix of GL(t,q), traced as tuple matrices
    for fp, t in [(GF2, 3), (GF4, 2), (GF8, 2), (GF16, 2)]:
        full = Counter((oracles.mat_trace(oracles.unpack_mat(fp, t, m)),
                        oracles.mat_trace(oracles.unpack_mat(fp, t, minv)))
                       for m, minv in matgf.gl_matrices(fp, t))
        assert dict(charsums._gl_trace_histogram(fp, t)) == full, (fp.q, t)


def test_gl_histogram_streams_the_search():
    # the traces are read as the search yields its keys: no list of the
    # 20,160 keys of GL(4,2) is held, which alone would take 8 bytes a key
    charsums._gl_trace_histogram(GF2, 4)  # the field tables, built outside the trace
    tracemalloc.start()
    try:
        hist = charsums._gl_trace_histogram.__wrapped__(GF2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist == charsums._gl_trace_histogram(GF2, 4)
    assert peak < 8 * combinat.gl_order(4, 2)


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
    rep = charsums.verify_carlitz(GF4, 1)
    assert rep["ok"] and rep["k2"] == 5
    assert charsums.verify_carlitz(GF2, 1)["k2"] == -1
    for fp in (GF2, GF4, GF8):
        for a in field.units(fp):
            assert charsums.verify_carlitz(fp, a)["ok"]


@pytest.mark.parametrize("a", [-1, 8, True, 0], ids=["negative", "q", "bool", "zero"])
def test_carlitz_rejects_non_units(a):
    # a indexes the value tables, where -1 would read the last slot and q run off the end
    with pytest.raises(ValueError):
        charsums.verify_carlitz(GF8, a)


def test_power_invariance():
    assert charsums.verify_power_invariance(GF4, 0b10, 1)["ok"]
    for a in field.units(GF8):
        for s in (0, 1, 2, 3):
            assert charsums.verify_power_invariance(GF8, a, s)["ok"]
    with pytest.raises(ValueError):
        charsums.verify_power_invariance(GF8, 1, -1)


def test_theta_identities():
    rep = charsums.verify_theta_identities(GF4, 1)
    assert rep["part_a"]["lhs"] == 2 and rep["ok"]
    for beta in field.units(GF8):
        assert charsums.verify_theta_identities(GF8, beta)["ok"]
    # b = omega is outside the Artin-Schreier image {0,1} of GF(4)
    for beta in field.units(GF4):
        rep = charsums.verify_theta_identities(GF4, beta, b=0b10)
        assert rep["part_b"]["ok"]
    for b in (0, 1):  # 0 = 0^2 + 0 and 1 = omega^2 + omega, both of trace 0
        with pytest.raises(ValueError, match=f"b = {b} is of the form alpha\\^2 \\+ alpha"):
            charsums.verify_theta_identities(GF4, 1, b=b)
    with pytest.raises(ValueError):
        charsums.verify_theta_identities(GF4, 0)


def test_twisted_sums():
    assert charsums.verify_twisted_sum(GF4, 0, 1)["lhs"] == 1
    rep = charsums.verify_twisted_sum(GF4, 1, 1)
    assert rep["lhs"] == 5 and rep["ok"]
    for beta in field.elements(GF8):
        for m in (1, 2):
            assert charsums.verify_twisted_sum(GF8, beta, m)["ok"]
    with pytest.raises(ValueError):
        charsums.verify_twisted_sum(GF4, 1, 0)


def test_kloosterman_value_range():
    assert charsums.kloosterman_range(GF4) == {-1, 3}
    assert charsums.kloosterman_range(GF16) == {-5, -1, 3, 7}
    with pytest.raises(ValueError):
        charsums.kloosterman_range(GF2)
    for fp in (GF4, GF8, GF16):
        attained = set(charsums.kloosterman_values(fp, 1)[1:])
        assert attained == charsums.kloosterman_range(fp)
        for v in attained:
            assert v % 4 == 3 and v * v < 4 * fp.q
