from itertools import product

import pytest
from hypothesis import given, strategies as st

from ksums import combinat, field, matgf
from ksums.combinat import binom, q_binomial

import oracles
from oracles import stirling2


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 7) == 0
    assert binom(0, 0) == 1
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_huge_n_small_k():
    n = 10 ** 12
    assert binom(n, 2) == n * (n - 1) // 2


def test_stirling_examples():
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    for h in range(1, 8):
        assert stirling2(h, h) == 1
        assert stirling2(h, 1) == 1
        assert stirling2(h, 0) == 0
    assert stirling2(3, 5) == 0


@given(st.integers(1, 12), st.integers(1, 12))
def test_stirling_recurrence(h, t):
    assert stirling2(h, t) == t * stirling2(h - 1, t) + stirling2(h - 1, t - 1)


@given(st.integers(0, 8), st.data())
def test_q_binomial_symmetry_and_pascal(n, data):
    q = data.draw(st.sampled_from([2, 4, 8, 16]))
    r = data.draw(st.integers(0, n))
    assert q_binomial(n, r, q) == q_binomial(n, n - r, q)
    if 1 <= r <= n - 1:
        assert q_binomial(n, r, q) == (q_binomial(n - 1, r - 1, q)
                                       + q ** r * q_binomial(n - 1, r, q))


def test_q_binomial_counts_lines():
    # [n 1]_q = number of lines through 0 in F_q^n = (q^n - 1)/(q - 1)
    for n, q in product(range(1, 5), (2, 4, 8)):
        assert q_binomial(n, 1, q) == (q ** n - 1) // (q - 1)


def test_gl_order_vs_enumeration():
    for r, n in [(1, 2), (1, 3), (2, 2)]:
        fp = field.binary_field(r)
        keys = [key for key, _ in matgf.gl_matrices(fp, n)]
        assert combinat.gl_order(n, fp.q) == len(set(keys)) == len(keys)
    assert combinat.gl_order(0, 7) == 1


def test_q_pochhammer():
    assert combinat.q_pochhammer(-1, 2, 3) == 2 * 3 * 5
    assert combinat.q_pochhammer(1, 5, 4) == 0  # (1-1) factor


def test_nonsingular_symmetric_formula_vs_enumeration():
    # oracle: count the symmetric matrices among all of GL(size, q)
    for r_field, size in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]:
        fp = field.binary_field(r_field)
        mats = (oracles.unpack_mat(fp, size, key) for key, _ in matgf.gl_matrices(fp, size))
        count = sum(1 for m in mats if m == oracles.mat_transpose(m))
        assert count == combinat.nonsingular_symmetric_count(size, fp.q), (r_field, size)
    assert combinat.nonsingular_symmetric_count(0, 4) == 1


def test_nonsingular_symmetric_small_closed_forms():
    for q in (2, 4, 8):
        assert combinat.nonsingular_symmetric_count(1, q) == q - 1
        assert combinat.nonsingular_symmetric_count(2, q) == q * q * (q - 1)
