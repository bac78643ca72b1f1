"""Bad parameters at every public entry point raise ValueError.

Each case is a call taking one parameter. It must answer at a valid value
(which also fills any cache keyed by it), then refuse a bool, floats and
values just outside the bound with ValueError: never TypeError,
AttributeError, a float result or the cached answer of an equal int.
"""

import pytest

from ksums import charsums, coset_codes as cc, field, moments, orthogroup as og, verify
from ksums.field import binary_field

GF2 = binary_field(1)
GF8 = binary_field(3)
DC1 = cc.parse_family("dc1-", 1, GF8)
DC2 = cc.parse_family("dc2+", 2, GF2)

NOT_INTS = (True, 1.0, 2.0)
Q_OUTSIDE = (1.5, -2, 0, 1, 3, 6, 12)  # the closed forms' q is an int power of two >= 2

# id -> (call of the parameter, a valid value, values outside the bound)
CASES = {
    "power-e": (lambda v: field.power(GF8, 2, v), 1, ()),  # negative e is an inverse
    "kloosterman-a": (lambda v: charsums.kloosterman(GF8, v), 1, (0, -1, 8)),
    "kloosterman-m": (lambda v: charsums.kloosterman(GF8, 1, v), 1, (0,)),
    "kloosterman-c": (lambda v: charsums.kloosterman(GF8, 1, 1, v), 1, (0,)),
    "kloosterman_values-m": (lambda v: charsums.kloosterman_values(GF8, v), 1, (0,)),
    "kloosterman_value-a": (lambda v: charsums.kloosterman_value(GF8, v), 1, (0, -1, 8)),
    "kloosterman_value-m": (lambda v: charsums.kloosterman_value(GF8, 1, v), 1, (0,)),
    "kloosterman_value-c": (lambda v: charsums.kloosterman_value(GF8, 1, 1, v), 1, (0,)),
    "moment-m": (lambda v: charsums.moment(GF8, v, 2), 1, (0,)),
    "moment-h": (lambda v: charsums.moment(GF8, 1, v), 1, (-1,)),
    "kloosterman_gl-t": (lambda v: charsums.kloosterman_gl(GF8, v, 1), 1, (-1,)),
    "kloosterman_gl-a": (lambda v: charsums.kloosterman_gl(GF8, 1, v), 1, (0,)),
    "kloosterman_gl-c": (lambda v: charsums.kloosterman_gl(GF8, 1, 1, c=v), 1, (0,)),
    "bruhat_cell-n": (lambda v: og.bruhat_cell(GF2, v, 0), 1, (0,)),
    "bruhat_cell-r": (lambda v: og.bruhat_cell(GF2, 1, v), 1, (-1, 2)),
    "a_r_subgroup-n": (lambda v: og.a_r_subgroup(GF2, v, 0), 1, (0,)),
    "a_r_subgroup-r": (lambda v: og.a_r_subgroup(GF2, 1, v), 1, (-1, 2)),
    "enumerate_parabolic-n": (lambda v: og.enumerate_parabolic(GF2, v), 1, (0,)),
    "group_counts-n": (lambda v: og.group_counts(v, 8), 1, (0,)),
    "group_counts-q": (lambda v: og.group_counts(1, v), 2, Q_OUTSIDE),
    "group_order-n": (lambda v: og.group_order(v, 4), 1, (0, -1, 1.5)),
    "group_order-q": (lambda v: og.group_order(1, v), 2, Q_OUTSIDE),
    "parabolic_order-n": (lambda v: og.parabolic_order(v, 4), 1, (0, -1, 1.5)),
    "parabolic_order-q": (lambda v: og.parabolic_order(1, v), 2, Q_OUTSIDE),
    "exp_sum_cell-n": (lambda v: og.cell_sums(GF2, v, 0, "formula"), 1, (0,)),
    "exp_sum_cell-r": (lambda v: og.cell_sums(GF2, 1, v, "formula"), 1, (-1, 2)),
    "cell_sum_coefficient-n": (lambda v: og.cell_sum_coefficient(v, 0, 2), 1, (0,)),
    "cell_sum_coefficient-r": (lambda v: og.cell_sum_coefficient(1, v, 2), 1, (-1, 2, 3)),
    "cell_sum_coefficient-q": (lambda v: og.cell_sum_coefficient(1, 0, v), 2, Q_OUTSIDE),
    "cell_order-n": (lambda v: og.cell_order(v, 0, 4), 1, (0,)),
    "cell_order-r": (lambda v: og.cell_order(1, v, 4), 1, (-1, 2, 5)),
    "cell_order-q": (lambda v: og.cell_order(1, 0, v), 2, Q_OUTSIDE),
    "parse_family-n": (lambda v: cc.parse_family("dc1-", v, GF8), 1, (0, -1)),
    "dual_weight-a": (lambda v: cc.dual_weight(DC1, v), 1, (0,)),
    "weight_distribution-j_max": (lambda v: cc.weight_distribution({1: 1}, v), 1, (-1,)),
    "weight_distribution-key": (lambda v: cc.weight_distribution({v: 1, 3: 1}), 1, (-1, 1.5)),
    "weight_distribution-count": (lambda v: cc.weight_distribution({1: v, 3: 1}), 1, (-1,)),
    "walsh_weights-key": (lambda v: cc.walsh_weights({v: 1, 3: 1}), 1, (-1, 1.5, 256, 1 << 40)),
    "walsh_weights-count": (lambda v: cc.walsh_weights({1: v, 3: 1}), 1, (-1,)),
    "pless_sums-n": (lambda v: cc.pless_sums([1, 1], v, 1), 1, (-1,)),
    "pless_sums-h_max": (lambda v: cc.pless_sums([1, 1], 1, v), 1, (-1,)),
    "pless_check-h_max": (lambda v: cc.pless_check([1, 0], [1, 1], 0, v), 1, (-1,)),
    "pless_check-k": (lambda v: cc.pless_check([1, 0], [1, 1], v, 0), 0, (-1, 2)),
    "krawtchouk_sum-length": (lambda v: cc.krawtchouk_sum({0: 1}, v, 1), 2, (-1,)),
    "krawtchouk_sum-cap": (lambda v: cc.krawtchouk_sum({0: 1}, 2, v), 1, (-1,)),
    "MK_EVEN.oracles-h_max": (lambda v: moments.MK_EVEN.oracles(GF8, v), 1, (-1,)),
    "MK.sequence-h_max": (lambda v: moments.MK.sequence(DC1, v), 1, (-1,)),
    "mk_recursive-h": (lambda v: moments.mk_recursive(DC1, v), 1, (-1,)),
    "mk2_recursive-h": (lambda v: moments.mk2_recursive(DC2, v), 1, (-1,)),
    "mk_even_recursive-h": (lambda v: moments.mk_even_recursive(DC2, v), 1, (-1,)),
    "verify_lhs_expansion-h_max": (lambda v: moments.verify_lhs_expansion(DC1, v), 1, (-1,)),
    "run_checks-max_r": (lambda v: verify.run_checks(v, 1, 0), 1, (0, field.MAX_DEGREE + 1)),
    "run_checks-max_n": (lambda v: verify.run_checks(1, v, 0), 1, (0,)),
    "run_checks-h_max": (lambda v: verify.run_checks(1, 1, v), 1, (-1,)),
}


@pytest.mark.parametrize("call, good, outside", CASES.values(), ids=CASES.keys())
def test_bad_parameters_raise_value_error(call, good, outside):
    call(good)
    for bad in NOT_INTS + outside:
        with pytest.raises(ValueError):
            call(bad)


def test_weight_distribution_rejects_a_negative_trace_value():
    # -1 would wrap into the last slot of the Walsh-Hadamard array
    for transform in (cc.weight_distribution, cc.walsh_weights):
        with pytest.raises(ValueError, match="trace value must be >= 0, got -1"):
            transform({1: 1, -1: 1})
        with pytest.raises(ValueError, match="multiplicity of 1 must be an int, got True"):
            transform({1: True})


def test_messages_name_the_parameter():
    with pytest.raises(ValueError, match=r"^h must be an int, got 2\.0$"):
        charsums.moment(GF8, 1, 2.0)
    with pytest.raises(ValueError, match=r"^e must be an int, got 2\.0$"):
        field.power(GF8, 2, 2.0)
    with pytest.raises(ValueError, match="^dc1- n must be an int, got True$"):
        cc.parse_family("dc1-", True, GF8)
    with pytest.raises(ValueError, match="^dc2\\+ n must be >= 2, got 0$"):
        cc.parse_family("dc2+", 0, GF8)
    with pytest.raises(ValueError, match="^cell r must be <= 1, got 2$"):
        og.bruhat_cell(GF2, 1, 2)
    with pytest.raises(ValueError, match="^needs c != 0$"):
        charsums.kloosterman(GF8, 1, 1, 0)
    with pytest.raises(ValueError, match="^q must be a power of two, got 6$"):
        og.group_counts(1, 6)


def test_cached_mappings_are_read_only():
    hist = og.bruhat_cell(GF2, 2, 1).trace_histogram
    with pytest.raises(TypeError):
        hist[0] = 5
    with pytest.raises(TypeError):
        del hist[0]
