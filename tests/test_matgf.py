import random
from array import array
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, strategies as st

from ksums import combinat, matgf
from ksums.field import binary_field
from ksums.verify import ALT_MODULI

import oracles

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)


def test_identity_and_transpose():
    i3 = oracles.mat_identity(3)
    assert oracles.mat_transpose(i3) == i3
    m = ((1, 2), (3, 0))
    assert oracles.mat_transpose(m) == ((1, 3), (2, 0))
    assert oracles.mat_trace(m) == 1


def test_mul_small_example():
    # over GF(4): [[w,0],[0,w]] * [[w,1],[1,0]] = [[w^2,w],[w,0]]
    w, w2 = 0b10, 0b11
    a = ((w, 0), (0, w))
    b = ((w, 1), (1, 0))
    assert oracles.mat_mul(GF4, a, b) == ((w2, w), (w, 0))


def test_mul_identity_neutral():
    m = ((1, 2, 3), (0, 1, 2), (3, 3, 1))
    i3 = oracles.mat_identity(3)
    assert oracles.mat_mul(GF4, m, i3) == m
    assert oracles.mat_mul(GF4, i3, m) == m


def _read_key(fp, entry, count, i):
    """The key of matrix i of count from its entry planes, read bit by bit."""
    key = 0
    for planes in entry:
        key = key << fp.r | sum((plane >> count - 1 - i & 1) << u for u, plane in enumerate(planes))
    return key


def _gl_pass(fp, n):
    """(det w, the planes of w^-1) over every n x n matrix w as one slice, in key order.

    The helpers as orthogroup._levi_keys composes them: det w and its
    cofactors by minors, over det w by plane_quotients; entry (i, j) of
    w^-1 is the cofactor off row j and column i over det w.
    """
    width = fp.r * n * n
    dot = matgf.plane_dot(fp)
    entry, = matgf.matrix_planes(fp, n, width)
    minor = matgf.minors(dot, n, entry, [(1 << (1 << width)) - 1] + [0] * (fp.r - 1))
    rows, cols = tuple(range(n)), (1 << n) - 1
    det = minor(rows, cols)
    cofactors = [minor(rows[:j] + rows[j + 1:], cols ^ 1 << i) for i in rows for j in rows]
    return det, matgf.plane_quotients(dot, cofactors, det)


def _units(det, count):
    """The keys where the planes det read nonzero, ascending."""
    mask = reduce(or_, det)
    return [i for i in range(count) if mask >> count - 1 - i & 1]


GL_SHAPES = [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF2, 4), (GF4, 1), (GF4, 2), (GF8, 2),
             (binary_field(3, ALT_MODULI[3]), 2), (binary_field(4, ALT_MODULI[4]), 2)]


@pytest.mark.parametrize("fp,n", GL_SHAPES)
def test_gl_matrices_against_product_scan(fp, n):
    # one pass over every n x n matrix: det w is nonzero at exactly the
    # invertible keys of the product scan, and there the cofactors over det w
    # read w^-1 by Gauss-Jordan elimination (a sample of about 2000 matrices
    # at the largest shapes); the 0 x 0 matrix has the empty minor, 1
    det, inverse = _gl_pass(fp, n)
    count = 1 << fp.r * n * n
    keys = oracles.invertible_keys(fp, n)
    assert _units(det, count) == keys
    assert len(keys) == combinat.gl_order(n, fp.q)
    for key in keys[::max(1, len(keys) // 2000)]:
        m, minv = oracles.unpack_mat(fp, n, key), oracles.unpack_mat(
            fp, n, _read_key(fp, inverse, count, key))
        assert minv == oracles.mat_inv(fp, m), (fp.q, n, key)


def test_inverse_round_trip_full_gl():
    # every inverse of the pass, times its matrix, is the identity, and
    # inverting twice gives the matrix back, over all of GL(n,q)
    for fp, n in [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF4, 1), (GF4, 2), (GF8, 2)]:
        det, inverse = _gl_pass(fp, n)
        count = 1 << fp.r * n * n
        pairs = {key: _read_key(fp, inverse, count, key) for key in _units(det, count)}
        for key, inv in pairs.items():
            m, minv = oracles.unpack_mat(fp, n, key), oracles.unpack_mat(fp, n, inv)
            assert oracles.mat_mul(fp, minv, m) == oracles.mat_identity(n), (fp.q, n)
            assert pairs[inv] == key, (fp.q, n)
        assert len(pairs) == combinat.gl_order(n, fp.q), (fp.q, n)


def test_gl_matrices_count_gl42():
    det, _ = _gl_pass(GF2, 4)
    assert reduce(or_, det).bit_count() == combinat.gl_order(4, 2)


@pytest.mark.parametrize("r", range(1, 9))
def test_key_planes_round_trip(r):
    # keys to planes to keys is the identity, and each key reads back bit by
    # bit from the planes, at lengths 0, 1, 2 and 1,025
    fp = binary_field(r)
    rng = random.Random(r)
    for n in (1, 2, 3):
        keys = [(1 << r * n * n) - 1] + [rng.getrandbits(r * n * n) for _ in range(1024)]
        for length in (0, 1, 2, 1025):
            planes = matgf.key_planes(fp, n, keys[:length])
            assert [_read_key(fp, planes, length, i) for i in range(length)] == keys[:length]
            assert matgf.plane_keys(fp, n, planes, length) == keys[:length], (n, length)


def test_matrix_planes_list_every_key_in_order():
    # the slices of every n x n matrix, at every width, are the keys
    # 0 .. q^(n^2) - 1 in ascending order
    for fp, n in [(GF2, 1), (GF2, 2), (GF4, 2), (GF8, 1), (GF2, 3)]:
        bits = fp.r * n * n
        for width in range(bits + 1):
            count = 1 << width
            keys = [_read_key(fp, entry, count, i)
                    for entry in matgf.matrix_planes(fp, n, width) for i in range(count)]
            assert keys == list(range(1 << bits)), (fp.q, n, width)


@pytest.mark.parametrize("r", range(1, 9))
def test_key_traces_match_mat_trace(r):
    # every n whose keys fit a word, n = 0 included, fed as a list, a tuple
    # and a 'Q' memoryview, at lengths on both sides of a 1,024-key chunk
    fp = binary_field(r)
    rng = random.Random(r)
    for n in (n for n in range(9) if r * n * n <= 64):
        top = (1 << (r * n * n)) - 1
        keys = [0, top] + [rng.getrandbits(r * n * n) for _ in range(1023)]
        expected = bytes(oracles.mat_trace(oracles.unpack_mat(fp, n, k)) for k in keys)
        for length in (0, 1, 1023, 1024, 1025):
            part = keys[:length]
            for seq in (part, tuple(part), memoryview(array("Q", part))):
                assert matgf.key_traces(fp, n, seq) == expected[:length], (n, length, type(seq))


def test_key_traces_refuse_keys_outside_a_word():
    for bad in (1 << 64, -1):
        with pytest.raises(OverflowError):
            matgf.key_traces(GF2, 8, [0, bad])


def test_pack_round_trip_and_ordering():
    mats = list(product(product(range(GF4.q), repeat=2), repeat=2))
    keys = [oracles.pack_mat(GF4, m) for m in mats]
    hexes = list(matgf.keys_hex(GF4, 2, keys))
    for m, k in zip(mats, keys):
        assert oracles.unpack_mat(GF4, 2, k) == m
    assert sorted(range(len(mats)), key=lambda i: keys[i]) == sorted(
        range(len(mats)), key=lambda i: hexes[i])
    assert len(set(keys)) == len(mats) == 4 ** 4


def test_hex_width_two_digit_entries():
    fp = binary_field(5)
    m = ((17, 0), (1, 31))
    assert list(matgf.keys_hex(fp, 2, [oracles.pack_mat(fp, m)])) == ["1100011f"]
    assert oracles.unpack_mat(fp, 2, oracles.pack_mat(fp, m)) == m


@pytest.mark.parametrize("r", range(1, 9))
def test_keys_hex_matches_entrywise_format(r):
    fp = binary_field(r)
    width = (r + 3) // 4
    rng = random.Random(r)
    for n in (1, 2, 3, 4, 6):
        keys = [0, (1 << (r * n * n)) - 1] + [rng.getrandbits(r * n * n) for _ in range(50)]
        expected = ["".join(format(e, f"0{width}x") for row in oracles.unpack_mat(fp, n, k)
                            for e in row) for k in keys]
        assert list(matgf.keys_hex(fp, n, keys)) == expected, n
        assert list(matgf.keys_hex(fp, n, iter(keys))) == expected, n  # a stream is read once


@given(st.sampled_from([GF2, GF4]), st.integers(1, 3), st.data())
def test_mul_associative(fp, n, data):
    el = st.integers(0, fp.q - 1)
    draw_mat = st.tuples(*[st.tuples(*[el] * n)] * n)
    a, b, c = data.draw(draw_mat), data.draw(draw_mat), data.draw(draw_mat)
    lhs = oracles.mat_mul(fp, oracles.mat_mul(fp, a, b), c)
    assert lhs == oracles.mat_mul(fp, a, oracles.mat_mul(fp, b, c))


@given(st.sampled_from([GF2, GF4]), st.data())
def test_transpose_antihomomorphism(fp, data):
    el = st.integers(0, fp.q - 1)
    draw_mat = st.tuples(st.tuples(el, el), st.tuples(el, el))
    a, b = data.draw(draw_mat), data.draw(draw_mat)
    assert (oracles.mat_transpose(oracles.mat_mul(fp, a, b))
            == oracles.mat_mul(fp, oracles.mat_transpose(b), oracles.mat_transpose(a)))
