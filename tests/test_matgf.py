import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ksums import combinat, field, matgf
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


def _invertible_keys(fp, n):
    """pack_mat keys of the invertible n x n matrices, scanning itertools.product.

    A matrix is singular iff some row lies in the span of the rows above it;
    the span of each prefix of rows is built once, by closure.
    """
    mt = field.mul_table(fp)
    spans = {(): frozenset([(0,) * n])}

    def span(rows):
        if rows not in spans:
            v = rows[-1]
            spans[rows] = frozenset(tuple(x ^ mt[c][y] for x, y in zip(s, v))
                                    for s in span(rows[:-1]) for c in range(fp.q))
        return spans[rows]

    return [oracles.pack_mat(fp, m) for m in product(product(range(fp.q), repeat=n), repeat=n)
            if all(m[i] not in span(m[:i]) for i in range(n))]


GL_SHAPES = [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF2, 4), (GF4, 1), (GF4, 2), (GF8, 2),
             (binary_field(3, ALT_MODULI[3]), 2), (binary_field(4, ALT_MODULI[4]), 2)]


@pytest.mark.parametrize("fp,n", GL_SHAPES)
def test_gl_matrices_against_product_scan(fp, n):
    # the keys are exactly those of the invertible matrices, in increasing
    # order, and each inverse key unpacks to the inverse (a sample of about
    # 2000 pairs at the largest shapes)
    pairs = list(matgf.gl_matrices(fp, n))
    assert [key for key, _ in pairs] == _invertible_keys(fp, n)
    assert len(pairs) == combinat.gl_order(n, fp.q)
    for key, inv in pairs[::max(1, len(pairs) // 2000)]:
        m, minv = oracles.unpack_mat(fp, n, key), oracles.unpack_mat(fp, n, inv)
        assert oracles.mat_mul(fp, m, minv) == oracles.mat_identity(n)


def test_inverse_round_trip_full_gl():
    # inverses, strictly increasing keys and |GL(n,q)| pairs pin the same
    # pairs in the same order as inverting every matrix would
    for fp, n in [(GF2, 0), (GF2, 1), (GF2, 2), (GF2, 3), (GF4, 1), (GF4, 2), (GF8, 2)]:
        pairs = list(matgf.gl_matrices(fp, n))
        for key, inv in pairs:
            m, minv = oracles.unpack_mat(fp, n, key), oracles.unpack_mat(fp, n, inv)
            assert oracles.mat_mul(fp, minv, m) == oracles.mat_identity(n), (fp.q, n)
        keys = [key for key, _ in pairs]
        assert all(a < b for a, b in zip(keys, keys[1:])), (fp.q, n)
        assert len(pairs) == combinat.gl_order(n, fp.q), (fp.q, n)


def test_scalar_classes_cover_gl_once():
    # one matrix per class {u m : u != 0}: its first row leads with 1, and the
    # q-1 multiples of the representatives are all of GL(2,q), each once
    for fp in (GF4, GF8, binary_field(4)):
        mt = field.mul_table(fp)
        reps = [(oracles.unpack_mat(fp, 2, key), oracles.unpack_mat(fp, 2, inv))
                for key, inv in matgf.gl_matrices(fp, 2, scalar_classes=True)]
        assert len(reps) == combinat.gl_order(2, fp.q) // (fp.q - 1)
        assert all(next(filter(None, m[0])) == 1 for m, _ in reps)
        for m, minv in reps:
            assert oracles.mat_mul(fp, m, minv) == oracles.mat_identity(2)
        multiples = [oracles.pack_mat(fp, [[mt[u][x] for x in row] for row in m])
                     for m, _ in reps for u in field.units(fp)]
        full = [key for key, _ in matgf.gl_matrices(fp, 2)]
        assert len(multiples) == len(set(multiples)) == len(full)
        assert set(multiples) == set(full)


def test_gl_matrices_count_gl42():
    assert sum(1 for _ in matgf.gl_matrices(GF2, 4)) == combinat.gl_order(4, 2)


@pytest.mark.parametrize("r", range(1, 9))
def test_key_traces_match_mat_trace(r):
    fp = binary_field(r)
    rng = random.Random(r)
    for n in (1, 2, 3, 4):
        keys = [0, (1 << (r * n * n)) - 1] + [rng.getrandbits(r * n * n) for _ in range(50)]
        expected = [oracles.mat_trace(oracles.unpack_mat(fp, n, k)) for k in keys]
        assert list(matgf.key_traces(fp, n, keys)) == expected, n
        assert list(matgf.key_traces(fp, n, iter(keys))) == expected, n  # a stream is read once
    # the empty matrix: one trace 0 per key, and a finite stream
    expected = [oracles.mat_trace(oracles.unpack_mat(fp, 0, 0))] * 2
    assert list(matgf.key_traces(fp, 0, [0, 0])) == expected == [0, 0]


def test_pack_round_trip_and_ordering():
    mats = list(product(product(range(GF4.q), repeat=2), repeat=2))
    keys = [oracles.pack_mat(GF4, m) for m in mats]
    hexes = matgf.keys_hex(GF4, 2, keys)
    for m, k in zip(mats, keys):
        assert oracles.unpack_mat(GF4, 2, k) == m
    assert sorted(range(len(mats)), key=lambda i: keys[i]) == sorted(
        range(len(mats)), key=lambda i: hexes[i])
    assert len(set(keys)) == len(mats) == 4 ** 4


def test_hex_width_two_digit_entries():
    fp = binary_field(5)
    m = ((17, 0), (1, 31))
    assert matgf.keys_hex(fp, 2, [oracles.pack_mat(fp, m)]) == ["1100011f"]
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
        assert matgf.keys_hex(fp, n, keys) == expected, n


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
