from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ksums import field
from ksums.field import binary_field
from ksums.verify import ALT_MODULI

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)
ALL_FIELDS = [binary_field(r) for r in range(1, 9)]

# x^3+x^2+1 and x^4+x^3+1: second irreducibles for basis-independence tests
ALT = {3: 0b1101, 4: 0b11001}


def test_default_moduli_construct():
    for r in range(1, 9):
        fp = binary_field(r)
        assert fp.q == 2 ** r
        assert fp.modulus == field.DEFAULT_MODULI[r]


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        binary_field(9)
    with pytest.raises(ValueError):
        binary_field(0)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        binary_field(4, 0b111)  # degree 2, not 4
    with pytest.raises(ValueError):
        binary_field(4, 0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    with pytest.raises(ValueError):
        binary_field(3, -11)  # -0xb: right bit length, but negative
    with pytest.raises(ValueError):
        binary_field(3, "0xb")  # the string, not the int


def test_bool_rejected_where_int_expected():
    with pytest.raises(ValueError):
        binary_field(True)
    with pytest.raises(ValueError):
        binary_field(1, True)
    for b in (True, False):
        with pytest.raises(ValueError):
            field.check_element(GF4, b)
    with pytest.raises(ValueError):
        field.mul(GF4, True, 1)


def _carryless(x, y):
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        x <<= 1
        y >>= 1
    return acc


@pytest.mark.parametrize("r, modulus",
                         sorted(field.DEFAULT_MODULI.items()) + sorted(ALT_MODULI.items()))
def test_mul_table_matches_carryless_product(r, modulus):
    # exhaustive, against products formed here rather than read from the table
    fp = binary_field(r, modulus)
    mt = field.mul_table(fp)
    for x in field.elements(fp):
        assert mt[x] == tuple(field._poly_mod2(_carryless(x, y), modulus)
                              for y in field.elements(fp))
    assert field.inv_table(fp) == (0,) + tuple(
        next(y for y in field.units(fp) if field._poly_mod2(_carryless(x, y), modulus) == 1)
        for x in field.units(fp))


@pytest.mark.parametrize("r, modulus",
                         sorted(field.DEFAULT_MODULI.items()) + sorted(ALT_MODULI.items()))
def test_exp_log_ties_to_mul_table(r, modulus):
    # mul_table is read from exp_log, so the carryless-product test above is
    # exp/log's independent oracle; this one checks the pair's own shape: the
    # primitive element's powers, walked here through mul_table, first return
    # to 1 at q-1, each row is x y = g^(log x + log y), and the trace and
    # power tables agree with mul_table's squares and products
    fp = binary_field(r, modulus)
    exp, log = field.exp_log(fp)
    mt, n = field.mul_table(fp), fp.q - 1
    g, order, v = exp[1 % n], 1, exp[1 % n]
    while v != 1:
        v, order = mt[v][g], order + 1
    assert order == n
    assert exp[0] == 1 and sorted(exp) == list(field.units(fp))
    assert log[0] is None and all(exp[log[x]] == x for x in field.units(fp))
    for x in field.units(fp):
        assert mt[x][1:] == tuple(exp[(log[x] + log[y]) % n] for y in field.units(fp)), x
    # the trace table, spanned from a basis, against x + x^2 + ... by mul_table squares
    for x in field.elements(fp):
        acc = t = x
        for _ in range(r - 1):
            t = mt[t][t]
            acc ^= t
        assert field.trace_table(fp)[x] == acc, x
    for x in field.units(fp):
        assert field.power(fp, x, 0) == 1 and field.power(fp, x, 2) == mt[x][x]
        assert field.power(fp, x, n + 3) == mt[mt[x][x]][x]
        assert mt[x][field.power(fp, x, -1)] == 1


def test_arithmetic_examples():
    w = 0b10
    assert field.mul(GF4, w, w) == 0b11  # x * x = x + 1 mod x^2+x+1
    assert field.inv_table(GF8)[1] == 1


def test_inverse_of_zero_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        field.power(GF4, 0, -1)


def test_mixed_field_operands_rejected():
    big = 9  # an element of GF(16), not GF(4)
    with pytest.raises(ValueError):
        field.mul(GF4, big, 1)
    with pytest.raises(ValueError):
        field.additive_char(GF4, -1)


def test_trace_examples():
    assert field.trace_table(GF4)[1] == 0
    assert field.trace_table(GF4)[0b10] == 1
    for fp in ALL_FIELDS:
        assert field.trace_table(fp)[0] == 0


def test_additive_char_examples():
    assert field.additive_char(GF4, 0) == 1
    assert field.additive_char(GF4, 0b10) == -1
    assert sum(field.additive_char(GF8, x) for x in field.elements(GF8)) == 0


def test_char_orthogonality_exhaustive():
    for fp in ALL_FIELDS:
        for c in field.elements(fp):
            total = sum(field.additive_char(fp, field.mul(fp, c, x))
                        for x in field.elements(fp))
            assert total == (fp.q if c == 0 else 0), (fp.r, c)


def test_trace_is_onto_with_equal_fibers():
    for fp in ALL_FIELDS:
        counts = Counter(field.trace_table(fp))
        assert counts[0] == counts[1] == fp.q // 2


def test_artin_schreier_image():
    assert field.artin_schreier_image(GF2) == frozenset({0})
    assert field.artin_schreier_image(GF4) == frozenset({0, 1})
    for fp in ALL_FIELDS:
        image = field.artin_schreier_image(fp)
        assert len(image) == fp.q // 2
        assert image == frozenset(x for x in field.elements(fp)
                                  if field.trace_table(fp)[x] == 0)


def test_basis_independence():
    # all trace-derived data agrees between the two irreducible moduli
    for r, alt_mod in ALT.items():
        fp, alt = binary_field(r), binary_field(r, alt_mod)
        assert sorted(field.trace_table(fp)) == sorted(field.trace_table(alt))
        from ksums import charsums

        assert (sorted(charsums.kloosterman_values(fp, 1)[1:])
                == sorted(charsums.kloosterman_values(alt, 1)[1:]))
        for h in range(6):
            assert charsums.moment(fp, 1, h) == charsums.moment(alt, 1, h)


small_fields = st.sampled_from([binary_field(r) for r in (1, 2, 3, 4)])


@given(small_fields, st.data())
def test_field_axioms(fp, data):
    el = st.integers(0, fp.q - 1)
    x, y, z = data.draw(el), data.draw(el), data.draw(el)
    assert field.mul(fp, x, y) == field.mul(fp, y, x)
    assert field.mul(fp, field.mul(fp, x, y), z) == field.mul(fp, x, field.mul(fp, y, z))
    assert field.mul(fp, x, y ^ z) == field.mul(fp, x, y) ^ field.mul(fp, x, z)
    assert field.mul(fp, x, 1) == x
    if x:
        assert field.mul(fp, x, field.inv_table(fp)[x]) == 1
        assert field.power(fp, x, fp.q - 1) == 1


@given(small_fields, st.data())
def test_trace_and_char_properties(fp, data):
    el = st.integers(0, fp.q - 1)
    x, y = data.draw(el), data.draw(el)
    assert field.trace_table(fp)[x ^ y] == field.trace_table(fp)[x] ^ field.trace_table(fp)[y]
    assert field.trace_table(fp)[field.mul(fp, x, x)] == field.trace_table(fp)[x]
    assert (field.additive_char(fp, x ^ y)
            == field.additive_char(fp, x) * field.additive_char(fp, y))


def test_element_hex_round_trip():
    for x in field.elements(GF8):
        assert field.parse_element(GF8, field.element_hex(GF8, x)) == x
    with pytest.raises(ValueError):
        field.parse_element(GF4, "zz")
    with pytest.raises(ValueError):
        field.parse_element(GF4, "ff")  # valid hex, out of range
