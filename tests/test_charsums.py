import pytest

from ksums import charsums, combinat, field, verify
from ksums.errors import BudgetError
from ksums.field import binary_field

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
    # the convolution table costs m q^2 lookups: 3 * 2^16 fits, 300 * 2^16 does not
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
        charsums.kloosterman_values(GF4, 1, 0)
    with pytest.raises(ValueError):
        charsums.kloosterman_values(binary_field(8), 10 ** 9, 0)


def _direct_values(fp, m, c=1):
    return (None,) + tuple(charsums.kloosterman(fp, a, m, c) for a in field.units(fp))


@pytest.mark.parametrize("r,m,c", [(3, 2, 1), (5, 3, 3), (6, 2, 2), (8, 1, 5),
                                   (7, 2, 3), (4, 4, 3)])
def test_values_table_matches_direct_sums(r, m, c):
    fp = binary_field(r)
    assert charsums.kloosterman_values(fp, m, c) == _direct_values(fp, m, c)


def test_values_table_matches_direct_sums_alt_moduli():
    for r, modulus in verify.ALT_MODULI.items():
        fp = binary_field(r, modulus)
        for m in (1, 2):
            assert charsums.kloosterman_values(fp, m) == _direct_values(fp, m), (r, m)


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


def test_moment_scale_invariance():
    for fp in (GF4, GF8):
        for c in field.units(fp):
            for m in (1, 2):
                for h in range(6):
                    assert charsums.moment(fp, m, h, c=c) == charsums.moment(fp, m, h)


def test_weil_bound_exhaustive():
    for r in range(1, 9):
        fp = binary_field(r)
        for v in charsums.kloosterman_values(fp)[1:]:
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
    with pytest.raises(BudgetError):
        charsums.kloosterman_gl(GF2, 5, 1, "brute_force")  # |GL(5,2)| ~ 10^7


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


def test_gl_routes_and_closed_form_budget():
    # the closed form sums F(t+1) tuples: F(30) = 832040 fits, F(31) = 1346269 does not
    assert charsums.gl_routes(4, 2) == charsums.GL_METHODS
    assert charsums.gl_routes(2, 32) == ("recursion", "closed_form")  # |GL(2,32)| > 10^6
    assert charsums.gl_routes(29, 2) == ("recursion", "closed_form")
    assert charsums.gl_routes(30, 2) == ("recursion",)
    with pytest.raises(BudgetError):
        charsums.kloosterman_gl(GF2, 30, 1, "closed_form")
    assert charsums.kloosterman_gl(GF2, 30, 1, "all") == charsums.kloosterman_gl(
        GF2, 30, 1, "recursion")


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
    with pytest.raises(ValueError):
        charsums.verify_theta_identities(GF4, 1, b=1)  # 1 = omega^2 + omega
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
        attained = set(charsums.kloosterman_values(fp)[1:])
        assert attained == charsums.kloosterman_range(fp)
        for v in attained:
            assert v % 4 == 3 and v * v < 4 * fp.q
