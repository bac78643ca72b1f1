import math
import random
from itertools import product

import pytest

from ksums import charsums, combinat, coset_codes as cc, field, matgf, orthogroup as og
from ksums.errors import BudgetError
from ksums.field import binary_field
from ksums.verify import ALT_MODULI

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)


def test_theta_plus_examples():
    assert og.theta_plus(GF2, (1, 0)) == 0
    assert og.theta_plus(GF2, (1, 1)) == 1
    assert og.theta_plus(GF2, (1, 1, 1, 1)) == 0  # x1 x3 + x2 x4 = 1 + 1
    with pytest.raises(ValueError):
        og.theta_plus(GF2, (1, 0, 1))


def test_theta_plus_is_quadratic():
    for v in product(range(4), repeat=4):
        for c in field.units(GF4):
            cv = [field.mul(GF4, c, x) for x in v]
            c2 = field.mul(GF4, c, c)
            assert og.theta_plus(GF4, cv) == field.mul(GF4, c2, og.theta_plus(GF4, v))


def test_theta_plus_polarization_is_additive():
    # B(u,v) = theta(u+v) + theta(u) + theta(v) must be additive in u
    def polar(u, v):
        s = tuple(x ^ y for x, y in zip(u, v))
        return og.theta_plus(GF4, s) ^ og.theta_plus(GF4, u) ^ og.theta_plus(GF4, v)

    vecs = list(product(range(4), repeat=2))
    for u1 in vecs:
        for u2 in vecs:
            for v in vecs[::3]:
                u12 = tuple(x ^ y for x, y in zip(u1, u2))
                assert polar(u12, v) == polar(u1, v) ^ polar(u2, v)


def test_sigma_plus():
    assert og.sigma_plus(2, 0) == matgf.mat_identity(4)
    for n, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        s = og.sigma_plus(n, r)
        assert matgf.mat_mul(GF2, s, s) == matgf.mat_identity(2 * n)
        for fp in (GF2, GF4):
            assert og.outside_oplus(fp, n, [matgf.pack_mat(fp, s)]) == []
    with pytest.raises(ValueError):
        og.sigma_plus(2, 3)


def test_outside_oplus_examples():
    inside = [matgf.mat_identity(4)] + [((a, 0, 0, 0), (0, 1, 0, 0), (0, 0, field.inv(GF4, a), 0),
                                         (0, 0, 0, 1)) for a in field.units(GF4)]
    outside = [((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # tB D = B not alternating
               ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 0, 1)),  # tA C = C not alternating
               ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))]  # tA D != 1
    keys = [matgf.pack_mat(GF4, m) for m in inside + outside]
    assert og.outside_oplus(GF4, 2, keys) == keys[len(inside):]
    torus = [matgf.pack_mat(GF4, ((a, 0), (0, field.inv(GF4, a)))) for a in field.units(GF4)]
    shear = matgf.pack_mat(GF4, ((1, 1), (0, 1)))  # tB D = 1 not alternating
    assert og.outside_oplus(GF4, 1, torus + [shear]) == [shear]
    # a key that encodes no 4 x 4 matrix over GF(4) is not a member either
    assert og.outside_oplus(GF4, 2, [-1, GF4.q ** 16]) == [-1, GF4.q ** 16]
    with pytest.raises(ValueError):
        og.outside_oplus(GF4, 0, [0])


def test_membership_equals_isometry_exhaustively():
    # the Gram-matrix conditions == quadratic-form preservation, over every 2x2 matrix
    for fp in (GF2, GF4, GF8):
        vectors = list(product(range(fp.q), repeat=2))
        mats = list(product(product(range(fp.q), repeat=2), repeat=2))
        outside = set(og.outside_oplus(fp, 1, [matgf.pack_mat(fp, m) for m in mats]))
        for m in mats:
            assert (matgf.pack_mat(fp, m) not in outside) == og.preserves_theta_plus(fp, m, vectors)


def test_perturbed_parabolic_keys_leave_oplus():
    # a single-entry change is a rank-one change; keeping theta+ would need
    # a reflection about some e_j, and theta+(e_j) = 0, so none stays inside
    for fp, n in [(GF4, 2), (GF2, 3)]:
        shifts = range(0, fp.r * 4 * n * n, fp.r)
        keys = og.enumerate_parabolic(fp, n)
        perturbed = [k ^ (d << sh) for k in keys for sh in shifts for d in field.units(fp)]
        assert og.outside_oplus(fp, n, perturbed) == perturbed


def test_cell_elements_are_in_oplus():
    for fp, n in [(GF2, 2), (GF4, 2), (GF2, 3)]:
        for r in range(n + 1):
            assert og.outside_oplus(fp, n, og.bruhat_cell(fp, n, r).elements) == []


def _pplus_matrices(fp, n):
    return [matgf.unpack_mat(fp, 2 * n, k) for k in og.enumerate_parabolic(fp, n)]


def test_parabolic_enumeration():
    # P+ is {g in O+(2n,q) : lower-left block C = 0}; with the order this pins it
    assert len(og.enumerate_parabolic(GF4, 1)) == 3
    assert len(og.enumerate_parabolic(GF2, 2)) == 12
    assert len(og.enumerate_parabolic(GF4, 2)) == 720
    gf128_alt = binary_field(7, ALT_MODULI[7])
    for fp, n in [(GF4, 1), (GF2, 2), (GF4, 2), (GF2, 3), (gf128_alt, 1)]:
        keys = og.enumerate_parabolic(fp, n)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == og.parabolic_order(n, fp.q)
        # the lower-left lanes of the bottom n rows hold C
        w = fp.r * n
        c_lanes = sum(((1 << w) - 1) << (2 * w * i + w) for i in range(n))
        assert all(k & c_lanes == 0 for k in keys)
        assert og.outside_oplus(fp, n, keys) == []


def test_parabolic_diag_form_n1():
    mats = _pplus_matrices(GF4, 1)
    assert set(mats) == {((a, 0), (0, field.inv(GF4, a))) for a in field.units(GF4)}


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        og.enumerate_parabolic(GF8, 2)  # |P+(4,8)|^2 = 28224^2 > 10^7
    with pytest.raises(BudgetError):
        og.bruhat_cell(GF8, 2, 1)


def test_bruhat_cells_2_2():
    sizes = []
    union = set()
    for r in range(3):
        cell = og.bruhat_cell(GF2, 2, r)
        sizes.append(len(cell.elements))
        assert not union & set(cell.elements)
        union |= set(cell.elements)
    assert sizes == [12, 36, 24]
    assert len(union) == 72 == og.group_order(2, 2)
    assert tuple(sorted(og.bruhat_cell(GF2, 2, 0).elements)) == og.enumerate_parabolic(GF2, 2)


def test_bruhat_cell_n1():
    for fp in (GF2, GF4, GF8):
        cell0 = og.bruhat_cell(fp, 1, 0)
        assert tuple(sorted(cell0.elements)) == og.enumerate_parabolic(fp, 1)
        assert len(og.bruhat_cell(fp, 1, 1).elements) == fp.q - 1


def test_cell_matches_unskipped_product_set():
    # oracle without the left-coset dedup shortcut: all |P+|^2 raw products;
    # n=1 at q=64 and q=128, one under a second modulus, adds large fields
    gf64, gf128 = binary_field(6), binary_field(7)
    gf128_alt = binary_field(7, ALT_MODULI[7])
    for fp, n, r in [(GF2, 2, 1), (GF2, 2, 2), (GF4, 1, 1),
                     (gf64, 1, 0), (gf64, 1, 1), (gf128, 1, 1), (gf128_alt, 1, 1)]:
        pplus = _pplus_matrices(fp, n)
        sigma = og.sigma_plus(n, r)
        raw = {matgf.pack_mat(fp, matgf.mat_mul(fp, matgf.mat_mul(fp, p1, sigma), p2))
               for p1 in pplus for p2 in pplus}
        assert tuple(sorted(raw)) == tuple(sorted(og.bruhat_cell(fp, n, r).elements))


def test_coset_products_kernel_matches_mat_mul():
    # an n=1 cell is one left coset sigma P+, so the kernel never scales a
    # lane there; random left factors reach every scalar. Over GF(4) at n = 2
    # the unipotent offsets of b E_12, b = 2, 3, come from other Levi blocks
    rng = random.Random(7)
    for fp, n, count in [(GF4, 2, 30), (GF2, 3, 6), (binary_field(7, ALT_MODULI[7]), 1, 60)]:
        pplus = _pplus_matrices(fp, n)
        left = [tuple(tuple(rng.randrange(fp.q) for _ in range(2 * n)) for _ in range(2 * n))
                for _ in range(count)]
        expect = {matgf.pack_mat(fp, matgf.mat_mul(fp, x, p)) for x in left for p in pplus}
        left_keys = [matgf.pack_mat(fp, x) for x in left]
        assert og._coset_products(fp, n, left_keys) == expect


def test_levi_blocks():
    # block u - 1 is [[u A, 0], [0, (u A)^-T]] over the scalar-class
    # representatives A, assembled from tuple matrices; the blocks together
    # are the Levi subgroup, one key per A in GL(n,q)
    def levi(fp, n, a, ainv):
        zero = (0,) * n
        return matgf.pack_mat(fp, tuple(row + zero for row in a)
                              + tuple(zero + row for row in matgf.mat_transpose(ainv)))

    def scaled(fp, u, m):
        return tuple(tuple(field.mul(fp, u, e) for e in row) for row in m)

    for fp, n in [(GF2, 3), (GF4, 2), (GF8, 1), (binary_field(7, ALT_MODULI[7]), 1)]:
        reps = [(matgf.unpack_mat(fp, n, a), matgf.unpack_mat(fp, n, ainv))
                for a, ainv in matgf.gl_matrices(fp, n, scalar_classes=True)]
        blocks = og._levi_blocks(fp, n)
        assert len(blocks) == fp.q - 1
        for u, block in zip(field.units(fp), blocks):
            uinv = field.inv(fp, u)
            assert list(block) == [levi(fp, n, scaled(fp, u, a), scaled(fp, uinv, ainv))
                                   for a, ainv in reps]
        pairs = [(matgf.unpack_mat(fp, n, a), matgf.unpack_mat(fp, n, ainv))
                 for a, ainv in matgf.gl_matrices(fp, n)]
        assert all(matgf.mat_mul(fp, a, ainv) == matgf.mat_identity(n) for a, ainv in pairs)
        union = [k for block in blocks for k in block]
        assert len(union) == combinat.gl_order(n, fp.q)
        assert set(union) == {levi(fp, n, a, ainv) for a, ainv in pairs}


def test_cells_list_distinct_elements():
    # every enumerable (q, n): n = 1 up to q = 256, and (2,2), (4,2), (2,3)
    cases = [(binary_field(r), 1) for r in range(1, 9)] + [(GF2, 2), (GF4, 2), (GF2, 3)]
    for fp, n in cases:
        for r in range(n + 1):
            elements = og.bruhat_cell(fp, n, r).elements
            assert len(set(elements)) == len(elements) == og.cell_order(n, r, fp.q)
    assert not og.enumerable(GF8, 2) and not og.enumerable(GF4, 3)
    assert not og.enumerable(GF2, 4)


def test_lane_swaps_match_permuted_matrices():
    # K s_r, s_r K and s_r K s_r on keys against permuting the matrix, then pack_mat
    gf128_alt = binary_field(7, ALT_MODULI[7])
    for fp, n in [(GF2, 1), (GF2, 2), (GF2, 3), (GF4, 1), (GF4, 2), (gf128_alt, 1)]:
        pplus = _pplus_matrices(fp, n)
        keys = og.enumerate_parabolic(fp, n)
        for r in range(n + 1):
            perm = og._sigma_perm(n, r)
            cols = og._swap_lanes(fp, n, r, keys, rows=False)
            rows = og._swap_lanes(fp, n, r, keys, rows=True)
            both = og._swap_lanes(fp, n, r, cols, rows=True)
            assert cols == [matgf.pack_mat(fp, og._permute_cols(m, perm)) for m in pplus]
            assert rows == [matgf.pack_mat(fp, [m[i] for i in perm]) for m in pplus]
            assert both == [matgf.pack_mat(fp, og._permute_cols([m[i] for i in perm], perm))
                            for m in pplus]


def test_cell_traces_match_mat_trace():
    # the diagonal lanes of each key against the trace of the unpacked matrix,
    # read through ordered_traces, in ascending key order, on the family
    # cells (codim 1 and 2)
    cases = [(binary_field(r), 1, 1) for r in range(1, 9)] + [(GF4, 2, 1), (GF2, 3, 97)]
    for fp, n, stride in cases:
        for r in range(n + 1):
            keys = sorted(og.bruhat_cell(fp, n, r).elements)
            traces = tuple(matgf.key_traces(fp, 2 * n, keys))
            assert traces[::stride] == tuple(
                matgf.mat_trace(matgf.unpack_mat(fp, 2 * n, k)) for k in keys[::stride])
            if 1 <= n - r <= 2:
                f = cc.parse_family(f"dc{n - r}{'+-'[n % 2]}", n, fp)
                assert cc.ordered_traces(f) == traces


def test_a_r_subgroup():
    assert og.a_r_subgroup(GF2, 2, 0) == og.enumerate_parabolic(GF2, 2)
    sizes = [len(og.a_r_subgroup(GF2, 2, r)) for r in range(3)]
    assert sizes == [12, 4, 6]
    counts = og.group_counts(2, 2)
    assert sizes == counts["a_r_orders"]
    # index identity: |P+| / |A_r| = [n r]_q q^C(r,2)
    for r in range(3):
        assert counts["parabolic_order"] // sizes[r] == counts["parabolic_indices"][r]


def test_group_counts_values():
    counts = og.group_counts(2, 2)
    assert counts["gl_orders"][2] == 6
    assert counts["group_order"] == 72
    assert counts["cell_orders"] == [12, 36, 24]
    assert counts["nonsingular_symmetric"][1] == 1  # q - 1 at q = 2
    assert og.group_counts(2, 4)["nonsingular_symmetric"] == [1, 3, 48]
    assert og.group_order(1, 4) == 6  # 2(q-1)
    with pytest.raises(ValueError):
        og.group_counts(0, 2)
    # enumeration shares the n >= 1 domain of the closed forms
    with pytest.raises(ValueError, match="n must be >= 1"):
        og.bruhat_cell(GF2, 0, 0)


def test_exp_sum_cell_n1_is_kloosterman():
    # P+(2,q) is the diagonal torus: sum of lambda(c(a + 1/a)) = K(lambda;c^2)
    for fp in (GF2, GF4, GF8):
        for c in field.units(fp):
            val = og.exp_sum_cell(fp, 1, 0, c, "brute")
            assert val == og.exp_sum_cell(fp, 1, 0, c, "formula")
            c2 = field.mul(fp, c, c)
            assert val == charsums.kloosterman(fp, c2)


def test_exp_sum_cell_example_2_2_1():
    assert og.exp_sum_cell(GF2, 2, 1, 1, "brute") == 12
    assert og.exp_sum_cell(GF2, 2, 1, 1, "formula") == 12


def test_exp_sums_brute_vs_formula():
    for fp, n in [(GF2, 2), (GF4, 2)]:
        for r in range(n + 1):
            for c in field.units(fp):
                assert (og.exp_sum_cell(fp, n, r, c, "brute")
                        == og.exp_sum_cell(fp, n, r, c, "formula")), (fp.q, r, c)
    with pytest.raises(ValueError):
        og.exp_sum_cell(GF2, 2, 1, 0)
    with pytest.raises(ValueError):
        og.exp_sum_cell(GF2, 2, 1, 1, "fast")


def test_exp_sum_cell_formula_beyond_enumeration():
    # n = 4..6 cannot be enumerated; pin the formula to the cell coefficient
    # written out by parity of r: q^C(n,2) q^e [n r]_q prod_(j<=top) (q^(2j-1) - 1)
    # with (e, top) = (rn - r^2/4, r/2) for even r, (rn - (r+1)^2/4, (r+1)/2) for odd r
    from ksums.combinat import binom, q_binomial

    for fp in (GF2, GF4):
        q = fp.q
        for n in range(4, 7):
            for r in range(n + 1):
                if r % 2 == 0:
                    e, top = r * n - r * r // 4, r // 2
                else:
                    e, top = r * n - (r + 1) ** 2 // 4, (r + 1) // 2
                coeff = q ** binom(n, 2) * q ** e * q_binomial(n, r, q)
                for j in range(1, top + 1):
                    coeff *= q ** (2 * j - 1) - 1
                for c in field.units(fp):
                    gl = charsums.kloosterman_gl(fp, n - r, 1, "recursion", c)
                    assert og.exp_sum_cell(fp, n, r, c) == coeff * gl, (q, n, r, c)


def test_gauss_sum_matches_stirling_side():
    # the whole-group sum equals sum over r of index * q^(r(n-r)) * s_r * K_GL(n-r)
    for fp, n in [(GF2, 2), (GF4, 2), (GF2, 3)]:
        q = fp.q
        counts = og.group_counts(n, q)
        for c in field.units(fp):
            per_r = sum(
                q ** math.comb(n, 2) * counts["parabolic_indices"][r]
                * q ** (r * (n - r)) * counts["nonsingular_symmetric"][r]
                * charsums.kloosterman_gl(fp, n - r, 1, "recursion", c)
                for r in range(n + 1))
            assert per_r == og.gauss_sum_oplus(fp, n, c, "formula")
            if og.parabolic_order(n, q) ** 2 <= og.PRODUCT_BUDGET:
                assert per_r == og.gauss_sum_oplus(fp, n, c, "brute")


def test_enumerated_elements_are_isometries():
    # exhaustive over vectors at (1,q) and (2,2); strided elements at (2,4), (3,2)
    for fp in (GF2, GF4, GF8):
        vectors = list(product(range(fp.q), repeat=2))
        for r in (0, 1):
            for key in og.bruhat_cell(fp, 1, r).elements:
                assert og.preserves_theta_plus(fp, matgf.unpack_mat(fp, 2, key), vectors)
    vectors2 = list(product(range(2), repeat=4))
    for r in range(3):
        cell = og.bruhat_cell(GF2, 2, r)
        for key in cell.elements:
            m = matgf.unpack_mat(GF2, 4, key)
            assert og.preserves_theta_plus(GF2, m, vectors2)
    vectors4 = list(product(range(4), repeat=4))
    for key in sorted(og.bruhat_cell(GF4, 2, 1).elements)[::37]:
        assert og.preserves_theta_plus(GF4, matgf.unpack_mat(GF4, 4, key), vectors4)
    vectors6 = list(product(range(2), repeat=6))
    for key in sorted(og.bruhat_cell(GF2, 3, 2).elements)[::601]:
        assert og.preserves_theta_plus(GF2, matgf.unpack_mat(GF2, 6, key), vectors6)


def _cell_union(fp, n):
    union = set()
    for r in range(n + 1):
        union |= set(og.bruhat_cell(fp, n, r).elements)
    return union


def test_products_stay_in_group():
    # closure evidence: products of cell elements land back in the cell union
    union = _cell_union(GF2, 2)
    mats = [matgf.unpack_mat(GF2, 4, k) for k in sorted(union)]
    for a in mats[::7]:
        for b in mats[::11]:
            assert matgf.pack_mat(GF2, matgf.mat_mul(GF2, a, b)) in union
    inverse = dict(matgf.gl_matrices(GF2, 4))
    for key in union:
        assert inverse[key] in union
    for fp, n, s1, s2 in [(GF4, 2, 301, 443), (GF2, 3, 1201, 1999)]:
        union = _cell_union(fp, n)
        keys = sorted(union)
        for ka in keys[::s1]:
            for kb in keys[::s2]:
                a = matgf.unpack_mat(fp, 2 * n, ka)
                b = matgf.unpack_mat(fp, 2 * n, kb)
                assert matgf.pack_mat(fp, matgf.mat_mul(fp, a, b)) in union


def test_trace_histogram_example():
    assert og.cell_trace_histogram(GF2, 2, 1) == {0: 24, 1: 12}
    # counted once per cell, however many c and cells read it
    assert og.cell_trace_histogram(GF2, 2, 1) is og.cell_trace_histogram(GF2, 2, 1)
