import math
import random
import sys
from array import array
from collections import Counter
from itertools import product

import pytest

from ksums import charsums, combinat, coset_codes as cc, field, matgf, orthogroup as og
from ksums.errors import BudgetError
from ksums.field import binary_field
from ksums.verify import ALT_MODULI

import oracles

GF2 = binary_field(1)
GF4 = binary_field(2)
GF8 = binary_field(3)


def test_theta_plus_examples():
    assert oracles.theta_plus(GF2, (1, 0)) == 0
    assert oracles.theta_plus(GF2, (1, 1)) == 1
    assert oracles.theta_plus(GF2, (1, 1, 1, 1)) == 0  # x1 x3 + x2 x4 = 1 + 1


def test_theta_plus_is_quadratic():
    for v in product(range(4), repeat=4):
        for c in field.units(GF4):
            cv = [field.mul(GF4, c, x) for x in v]
            c2 = field.mul(GF4, c, c)
            assert oracles.theta_plus(GF4, cv) == field.mul(GF4, c2, oracles.theta_plus(GF4, v))


def test_theta_plus_polarization_is_additive():
    # B(u,v) = theta(u+v) + theta(u) + theta(v) must be additive in u
    def polar(u, v):
        s = tuple(x ^ y for x, y in zip(u, v))
        return oracles.theta_plus(GF4, s) ^ oracles.theta_plus(GF4, u) ^ oracles.theta_plus(GF4, v)

    vecs = list(product(range(4), repeat=2))
    for u1 in vecs:
        for u2 in vecs:
            for v in vecs[::3]:
                u12 = tuple(x ^ y for x, y in zip(u1, u2))
                assert polar(u12, v) == polar(u1, v) ^ polar(u2, v)


def test_sigma_plus():
    assert oracles.sigma_plus(2, 0) == oracles.mat_identity(4)
    for n, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        s = oracles.sigma_plus(n, r)
        assert oracles.mat_mul(GF2, s, s) == oracles.mat_identity(2 * n)
        for fp in (GF2, GF4):
            assert og.outside_oplus(fp, n, [oracles.pack_mat(fp, s)]) == []


def test_outside_oplus_examples():
    inv = field.inv_table(GF4)
    inside = [oracles.mat_identity(4)] + [((a, 0, 0, 0), (0, 1, 0, 0), (0, 0, inv[a], 0),
                                         (0, 0, 0, 1)) for a in field.units(GF4)]
    outside = [((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # tB D = B not alternating
               ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 0, 1)),  # tA C = C not alternating
               ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))]  # tA D != 1
    keys = [oracles.pack_mat(GF4, m) for m in inside + outside]
    assert og.outside_oplus(GF4, 2, keys) == keys[len(inside):]
    torus = [oracles.pack_mat(GF4, ((a, 0), (0, inv[a]))) for a in field.units(GF4)]
    shear = oracles.pack_mat(GF4, ((1, 1), (0, 1)))  # tB D = 1 not alternating
    assert og.outside_oplus(GF4, 1, torus + [shear]) == [shear]
    # a key that encodes no 4 x 4 matrix over GF(4) is not a member either,
    # wherever it sits among members; duplicates and input order are kept
    big = GF4.q ** 16
    assert og.outside_oplus(GF4, 2, [-1, big]) == [-1, big]
    mixed = [keys[0], -1, keys[-1], keys[1], big, keys[-1], keys[0], -1]
    assert og.outside_oplus(GF4, 2, mixed) == [-1, keys[-1], big, keys[-1], -1]
    assert og.outside_oplus(GF4, 2, keys[::-1] * 2) == keys[:len(inside) - 1:-1] * 2
    assert og.outside_oplus(GF4, 2, []) == []
    assert og.outside_oplus(GF4, 2, (k for k in keys)) == keys[len(inside):]
    with pytest.raises(ValueError):
        og.outside_oplus(GF4, 0, [0])
    # n = 1 over the largest field and over each second modulus: the torus
    # and the swapped torus are members, a scalar a != 1 and a shear are not
    for fp in [binary_field(8)] + [binary_field(r, m) for r, m in ALT_MODULI.items()]:
        units = field.units(fp)
        members = [((a, 0), (0, field.inv_table(fp)[a])) for a in units]
        members += [((0, a), (field.inv_table(fp)[a], 0)) for a in units[::7]]
        others = [((a, 0), (0, a)) for a in units[1::5]] + [((1, 1), (0, 1)), ((0, 0), (0, 0))]
        keys1 = [oracles.pack_mat(fp, m) for m in members + others]
        assert og.outside_oplus(fp, 1, keys1) == keys1[len(members):]


def test_membership_equals_isometry_exhaustively():
    # the Gram-matrix conditions == quadratic-form preservation, over every 2x2 matrix
    for fp in (GF2, GF4, GF8):
        vectors = list(product(range(fp.q), repeat=2))
        mats = list(product(product(range(fp.q), repeat=2), repeat=2))
        outside = set(og.outside_oplus(fp, 1, [oracles.pack_mat(fp, m) for m in mats]))
        for m in mats:
            assert (oracles.pack_mat(fp, m) not in outside) == oracles.preserves_theta_plus(fp, m, vectors)
    # sampled 4x4 keys over GF(4) and 6x6 keys over GF(2): cell members, each
    # with one entry changed, and random keys, against every vector
    rng = random.Random(11)
    for fp, n in [(GF4, 2), (GF2, 3)]:
        nn = 2 * n
        vectors = list(product(range(fp.q), repeat=nn))
        members = [k for r in range(n + 1) for k in rng.sample(og.bruhat_cell(fp, n, r).elements, 6)]
        perturbed = [k ^ (rng.randrange(1, fp.q) << fp.r * rng.randrange(nn * nn)) for k in members]
        randoms = [rng.getrandbits(fp.r * nn * nn) for _ in range(12)]
        keys = members + perturbed + randoms
        outside = og.outside_oplus(fp, n, keys)
        assert outside == [k for k in keys if not oracles.preserves_theta_plus(
            fp, oracles.unpack_mat(fp, nn, k), vectors)]
        assert not set(outside) & set(members)


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
    return [oracles.unpack_mat(fp, 2 * n, k) for k in og.enumerate_parabolic(fp, n)]


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
    assert set(mats) == {((a, 0), (0, field.inv_table(GF4)[a])) for a in field.units(GF4)}


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
        sigma = oracles.sigma_plus(n, r)
        raw = {oracles.pack_mat(fp, oracles.mat_mul(fp, oracles.mat_mul(fp, p1, sigma), p2))
               for p1 in pplus for p2 in pplus}
        assert tuple(sorted(raw)) == tuple(sorted(og.bruhat_cell(fp, n, r).elements))


def test_coset_products_kernel_matches_mat_mul():
    # each left factor's expansion against its products x p over P+, as
    # multisets: |P+| keys, distinct where x is invertible. An n=1 cell is one
    # left coset sigma P+, so the kernel never scales a lane there; random
    # left factors, which need not lie in O+ or be invertible, reach every
    # scalar. Over GF(4) at n = 2 U's basis has X E_12, whose offsets come
    # from the products scaled by X. Over GF(256) at n = 1 the left factors
    # hold every unit in column 0 and in column 1, so every scale of a row of
    # either half is read
    def check(fp, n, left):
        pplus = _pplus_matrices(fp, n)
        left_keys = [oracles.pack_mat(fp, x) for x in left]
        for x, words in zip(left, og._coset_words(fp, n, left_keys), strict=True):
            keys = memoryview(words).cast("Q")
            assert len(keys) == len(pplus), (fp, n)
            expect = Counter(oracles.pack_mat(fp, oracles.mat_mul(fp, x, p)) for p in pplus)
            assert Counter(keys) == expect, (fp, n, x)

    rng = random.Random(7)
    for fp, n, count in [(GF4, 2, 30), (GF2, 3, 6), (binary_field(7, ALT_MODULI[7]), 1, 60)]:
        check(fp, n, [tuple(tuple(rng.randrange(fp.q) for _ in range(2 * n)) for _ in range(2 * n))
                      for _ in range(count)])
    c0, c1 = (rng.sample(range(1, 256), 255) for _ in range(2))
    check(binary_field(8), 1, [((c0[i], c1[i]), (c0[i - 1], c1[i - 1])) for i in range(0, 255, 2)])
    # members of O+ have |P+| distinct products
    for fp, n in [(GF4, 2), (GF2, 3)]:
        left = rng.sample(og.bruhat_cell(fp, n, 1).elements, 3)
        for words in og._coset_words(fp, n, left):
            assert len(set(memoryview(words).cast("Q"))) == og.parabolic_order(n, fp.q)


def test_coset_representatives_cover_each_left_factor_once():
    # every left factor p s_r lies in exactly one representative's coset
    # x0 P+, decided by the tuple-matrix products x0 p over P+, and the
    # representatives' cosets fill the cell: n = 1 over every degree and both
    # moduli of GF(8), then (2,2), (4,2) and O+(6,2)
    cases = [(binary_field(r), 1) for r in range(1, 9)]
    cases += [(binary_field(3, ALT_MODULI[3]), 1), (GF2, 2), (GF4, 2), (GF2, 3)]
    for fp, n in cases:
        pplus = _pplus_matrices(fp, n)
        for r in range(n + 1):
            reps = og._coset_representatives(fp, n, r)
            cosets = [{oracles.pack_mat(fp, oracles.mat_mul(fp, x0, p)) for p in pplus}
                      for x0 in (oracles.unpack_mat(fp, 2 * n, k) for k in reps)]
            sigma = oracles.sigma_plus(n, r)
            for p in pplus:
                left = oracles.pack_mat(fp, oracles.mat_mul(fp, p, sigma))
                assert sum(left in coset for coset in cosets) == 1, (fp, n, r)
            assert len(reps) * len(pplus) == len(og.bruhat_cell(fp, n, r).elements), (fp, n, r)


def test_levi_keys():
    # the key of [[A, 0], [0, A^-T]] for each A of the product scan, in its
    # order, with A^-1 by Gauss-Jordan elimination, assembled from tuple
    # matrices: the Levi subgroup, one key per A
    def levi(fp, n, a, ainv):
        zero = (0,) * n
        return oracles.pack_mat(fp, tuple(row + zero for row in a)
                              + tuple(zero + row for row in oracles.mat_transpose(ainv)))

    for fp, n in [(GF2, 3), (GF4, 2), (GF8, 1), (binary_field(7, ALT_MODULI[7]), 1)]:
        pairs = [(a, oracles.mat_inv(fp, a)) for a in (
            oracles.unpack_mat(fp, n, key) for key in oracles.invertible_keys(fp, n))]
        assert all(oracles.mat_mul(fp, a, ainv) == oracles.mat_identity(n) for a, ainv in pairs)
        keys = list(memoryview(og._levi_keys(fp, n)).cast("Q"))
        assert keys == [levi(fp, n, a, ainv) for a, ainv in pairs]
        assert len(set(keys)) == combinat.gl_order(n, fp.q)


def test_levi_keys_at_every_enumerable_shape():
    # under both moduli of each degree: the top-left blocks are the product
    # scan's invertible keys in ascending order, the off-diagonal blocks are
    # zero, the bottom-right block D has A tD = 1, and there are |GL(n,q)|
    shapes = 0
    for moduli in (field.DEFAULT_MODULI, ALT_MODULI):
        for fp in (binary_field(r, m) for r, m in moduli.items()):
            for n in (n for n in (1, 2, 3) if og.enumerable(fp, n)):
                shapes += 1
                tops = []
                for key in memoryview(og._levi_keys(fp, n)).cast("Q"):
                    m = oracles.unpack_mat(fp, 2 * n, key)
                    a, d = tuple(row[:n] for row in m[:n]), tuple(row[n:] for row in m[n:])
                    assert not any(any(row[n:]) for row in m[:n]), (fp, n, key)
                    assert not any(any(row[:n]) for row in m[n:]), (fp, n, key)
                    one = oracles.mat_mul(fp, a, oracles.mat_transpose(d))
                    assert one == oracles.mat_identity(n), (fp, n, key)
                    tops.append(oracles.pack_mat(fp, a))
                assert tops == oracles.invertible_keys(fp, n), (fp, n)
                assert len(tops) == combinat.gl_order(n, fp.q), (fp, n)
    assert shapes == 17


def test_coset_products_basis_offsets_at_t2():
    # (8,2) is over PRODUCT_BUDGET, so only here does U's basis reach
    # X^2 E_12; a walk that skipped t >= 2 would list 14,112 keys
    one = sum(1 << 3 * (16 - 1 - 5 * i) for i in range(4))
    words, = og._coset_words(GF8, 2, [one])
    keys = memoryview(words).cast("Q")
    assert len(set(keys)) == len(keys) == og.parabolic_order(2, 8) == 28224
    assert og.outside_oplus(GF8, 2, keys) == []
    c_lanes = sum(((1 << 6) - 1) << (12 * i + 6) for i in range(2))  # lower-left block C
    assert all(k & c_lanes == 0 for k in keys)


def test_cells_list_distinct_elements():
    # every enumerable (q, n): n = 1 up to q = 256, and (2,2), (4,2), (2,3)
    cases = [(binary_field(r), 1) for r in range(1, 9)] + [(GF2, 2), (GF4, 2), (GF2, 3)]
    for fp, n in cases:
        for r in range(n + 1):
            elements = og.bruhat_cell(fp, n, r).elements
            assert len(set(elements)) == len(elements) == og.cell_order(n, r, fp.q)
    assert not og.enumerable(GF8, 2) and not og.enumerable(GF4, 3)
    assert not og.enumerable(GF2, 4)


def test_enumerable_is_the_exact_comparison():
    # the lower bound on |P+| only ever says no where the exact order does
    for r in range(1, 9):
        fp = binary_field(r)
        for n in range(1, 13):
            assert og.enumerable(fp, n) == (og.parabolic_order(n, fp.q) ** 2 <= og.PRODUCT_BUDGET)


def test_lane_swaps_match_permuted_matrices():
    # K s_r, s_r K and s_r K s_r on keys against permuting the matrix, then pack_mat
    gf128_alt = binary_field(7, ALT_MODULI[7])
    for fp, n in [(GF2, 1), (GF2, 2), (GF2, 3), (GF4, 1), (GF4, 2), (gf128_alt, 1)]:
        pplus = _pplus_matrices(fp, n)
        keys = og.enumerate_parabolic(fp, n)
        for r in range(n + 1):
            perm = oracles.sigma_perm(n, r)
            cols = og._swap_lanes(fp, n, r, keys, rows=False)
            rows = og._swap_lanes(fp, n, r, keys, rows=True)
            both = og._swap_lanes(fp, n, r, cols, rows=True)
            assert cols == [oracles.pack_mat(fp, oracles.permute_cols(m, perm)) for m in pplus]
            assert rows == [oracles.pack_mat(fp, [m[i] for i in perm]) for m in pplus]
            assert both == [oracles.pack_mat(fp, oracles.permute_cols([m[i] for i in perm], perm))
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
                oracles.mat_trace(oracles.unpack_mat(fp, 2 * n, k)) for k in keys[::stride])
            if 1 <= n - r <= 2:
                f = cc.parse_family(f"dc{n - r}{'+-'[n % 2]}", n, fp)
                assert oracles.ordered_traces(f) == traces


def test_a_r_subgroup():
    assert og.a_r_subgroup(GF2, 2, 0) == og.enumerate_parabolic(GF2, 2)
    # the C-lane mask against conjugating each element of P+, at every
    # enumerable (q, n, r), over each second modulus too
    fields = [binary_field(r) for r in range(1, 9)]
    fields += [binary_field(r, m) for r, m in ALT_MODULI.items()]
    for fp in fields:
        for n in (1, 2, 3):
            if og.enumerable(fp, n):
                for r in range(n + 1):
                    assert og.a_r_subgroup(fp, n, r) == oracles.a_r_subgroup(fp, n, r)
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


def test_group_counts_lists_equal_single_values():
    # group_counts and the single-value closed forms share one formula each
    for n in range(1, 13):
        for r_field in range(1, 9):
            q = 1 << r_field
            counts = og.group_counts(n, q)
            assert counts["gl_orders"] == [combinat.gl_order(t, q) for t in range(n + 1)]
            assert counts["q_binomials"] == [combinat.q_binomial(n, r, q) for r in range(n + 1)]
            assert counts["parabolic_order"] == og.parabolic_order(n, q)
            assert counts["cell_orders"] == [og.cell_order(n, r, q) for r in range(n + 1)]
            assert counts["nonsingular_symmetric"] == [
                combinat.nonsingular_symmetric_count(r, q) for r in range(n + 1)]
            assert counts["group_order"] == og.group_order(n, q)


def test_group_counts_budget_boundary():
    # the lists hold about 4 (n + 2) n^2 log2 q bits, charged before any work:
    # 145 is the largest n admitted over GF(256)
    assert len(og.group_counts(145, 256)["cell_orders"]) == 146
    with pytest.raises(BudgetError, match=r"O\+\(292,2\^8\): about 100952576 bits, over budget"):
        og.group_counts(146, 256)


def test_exp_sum_cell_n1_is_kloosterman():
    # P+(2,q) is the diagonal torus: sum of lambda(c(a + 1/a)) = K(lambda;c^2)
    for fp in (GF2, GF4, GF8):
        brute, formula = og.cell_sums(fp, 1, 0, "brute"), og.cell_sums(fp, 1, 0, "formula")
        assert brute == formula
        for c in field.units(fp):
            assert brute[c] == charsums.kloosterman(fp, field.mul(fp, c, c))


def test_exp_sum_cell_example_2_2_1():
    assert og.cell_sums(GF2, 2, 1, "brute")[1] == 12
    assert og.cell_sums(GF2, 2, 1, "formula")[1] == 12


def test_exp_sums_brute_vs_formula():
    for fp, n in [(GF2, 2), (GF4, 2)]:
        for r in range(n + 1):
            assert og.cell_sums(fp, n, r, "brute") == og.cell_sums(fp, n, r, "formula"), (fp.q, r)
    with pytest.raises(ValueError):
        og.cell_sums(GF2, 2, 1, "fast")


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
                sums = og.cell_sums(fp, n, r, "formula")
                for c in field.units(fp):
                    gl = charsums.kloosterman_gl(fp, n - r, 1, "recursion", c)
                    assert sums[c] == coeff * gl, (q, n, r, c)


def test_gauss_sum_matches_stirling_side():
    # the whole-group sum equals sum over r of index * q^(r(n-r)) * s_r * K_GL(n-r)
    for fp, n in [(GF2, 2), (GF4, 2), (GF2, 3)]:
        q = fp.q
        counts = og.group_counts(n, q)
        modes = ("formula", "brute") if og.enumerable(fp, n) else ("formula",)
        for c in field.units(fp):
            per_r = sum(
                q ** math.comb(n, 2) * counts["parabolic_indices"][r]
                * q ** (r * (n - r)) * counts["nonsingular_symmetric"][r]
                * charsums.kloosterman_gl(fp, n - r, 1, "recursion", c)
                for r in range(n + 1))
            for mode in modes:
                assert per_r == sum(og.cell_sums(fp, n, r, mode)[c] for r in range(n + 1))


def test_enumerated_elements_are_isometries():
    # exhaustive over vectors at (1,q) and (2,2); strided elements at (2,4), (3,2)
    for fp in (GF2, GF4, GF8):
        vectors = list(product(range(fp.q), repeat=2))
        for r in (0, 1):
            for key in og.bruhat_cell(fp, 1, r).elements:
                assert oracles.preserves_theta_plus(fp, oracles.unpack_mat(fp, 2, key), vectors)
    vectors2 = list(product(range(2), repeat=4))
    for r in range(3):
        cell = og.bruhat_cell(GF2, 2, r)
        for key in cell.elements:
            m = oracles.unpack_mat(GF2, 4, key)
            assert oracles.preserves_theta_plus(GF2, m, vectors2)
    vectors4 = list(product(range(4), repeat=4))
    for key in sorted(og.bruhat_cell(GF4, 2, 1).elements)[::37]:
        assert oracles.preserves_theta_plus(GF4, oracles.unpack_mat(GF4, 4, key), vectors4)
    vectors6 = list(product(range(2), repeat=6))
    for key in sorted(og.bruhat_cell(GF2, 3, 2).elements)[::601]:
        assert oracles.preserves_theta_plus(GF2, oracles.unpack_mat(GF2, 6, key), vectors6)


def _cell_union(fp, n):
    union = set()
    for r in range(n + 1):
        union |= set(og.bruhat_cell(fp, n, r).elements)
    return union


def test_products_stay_in_group():
    # closure evidence: products of cell elements land back in the cell union
    union = _cell_union(GF2, 2)
    mats = [oracles.unpack_mat(GF2, 4, k) for k in sorted(union)]
    for a in mats[::7]:
        for b in mats[::11]:
            assert oracles.pack_mat(GF2, oracles.mat_mul(GF2, a, b)) in union
    for m in mats:
        assert oracles.pack_mat(GF2, oracles.mat_inv(GF2, m)) in union
    for fp, n, s1, s2 in [(GF4, 2, 301, 443), (GF2, 3, 1201, 1999)]:
        union = _cell_union(fp, n)
        keys = sorted(union)
        for ka in keys[::s1]:
            for kb in keys[::s2]:
                a = oracles.unpack_mat(fp, 2 * n, ka)
                b = oracles.unpack_mat(fp, 2 * n, kb)
                assert oracles.pack_mat(fp, oracles.mat_mul(fp, a, b)) in union


def test_bit_sliced_histogram_counts_the_streamed_traces():
    # every cell of every enumerable (q, n), under both moduli of each degree
    # that has a second one: the same counts as the traces of the unpacked
    # keys, in ascending beta and with no zero count
    fields = [binary_field(r, m) for moduli in (field.DEFAULT_MODULI, ALT_MODULI)
              for r, m in moduli.items()]
    cells = 0
    for fp in fields:
        for n in (1, 2, 3):
            if og.enumerable(fp, n):
                for r in range(n + 1):
                    cell = og.bruhat_cell(fp, n, r)
                    hist, keys = cell.trace_histogram, cell.elements
                    assert hist == Counter(oracles.mat_trace(oracles.unpack_mat(fp, 2 * n, k))
                                           for k in keys), (fp, n, r)
                    assert list(hist) == sorted(hist) and all(hist.values()), (fp, n, r)
                    cells += 1
    # n = 1 up to q = 256, n = 2 up to q = 4, O+(6,2), then n = 1 under ALT_MODULI
    assert cells == 8 * 2 + 2 * 3 + 4 + 6 * 2


def test_cached_cells_are_packed_and_read_only():
    empty = sys.getsizeof(array("Q"))
    for r in range(4):
        cell = og.bruhat_cell(GF2, 3, r)
        keys = cell.elements
        assert keys.readonly and keys.format == "Q" and keys.itemsize == 8
        # O+(6,2)'s cells: 8 bytes per key, with no spare capacity behind the view
        assert sys.getsizeof(keys.obj) - empty == 8 * len(keys) == keys.nbytes
        with pytest.raises(TypeError, match="read-only"):
            keys[0] = 0
        assert og.bruhat_cell(GF2, 3, r).elements[0] == keys[0]
        with pytest.raises(ValueError):  # a cell is not hashable, so never a cache key
            hash(cell)


def test_trace_histogram_example():
    hist = og.bruhat_cell(GF2, 2, 1).trace_histogram
    assert hist == {0: 24, 1: 12}
    # counted once per cell, however many c and cells read it
    assert og.bruhat_cell(GF2, 2, 1).trace_histogram is hist
