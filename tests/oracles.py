"""Reference code that the tests pin the library's production routes to.

None of this is reached by the CLI or by `verify`. Each function is taken
straight from a definition, on plain tuples, so that the packed-key routes of
ksums have something independent to be compared with:

- tuple matrices over GF(2^r) (immutable tuples of row tuples) and their
  packing to and from the library's packed keys (row-major, big-endian,
  fp.r bits per entry), against which matgf's key_traces and keys_hex and
  orthogroup's lane swaps and coset kernel are read;
- GL(n,q) two ways, neither through bit planes: the invertible keys by a
  product scan that builds the span of each prefix of rows, and the inverse
  of one matrix by Gauss-Jordan elimination, its pivots inverted by a search
  of their mul_table rows rather than by inv_table. Against them are read
  matgf's one pass over GL(n,q), orthogroup's Levi keys and charsums' GL
  trace histogram;
- the hyperbolic form theta+ and the isometry test built on it, the
  definition-level oracle of orthogroup.outside_oplus's bit-sliced Gram
  pass, and the involutions s_r as tuple matrices;
- A_r by its definition, the w in P+ with s_r w s_r in P+, conjugating
  each unpacked element, against which the block mask of
  orthogroup.a_r_subgroup is pinned;
- the literal trace vector and dual codewords of a family's code, built in
  canonical (sorted packed-key) order;
- the Stirling numbers of the second kind, from their alternating-binomial
  sum, against which coset_codes.pless_sums is pinned;
- the Kloosterman values tables by multiplicative convolution over
  mul_table, m levels of (q-1)^2 lookups, against which the Kronecker
  products of charsums.kloosterman_values are pinned.
"""

import math
from itertools import product

from ksums import field, matgf, orthogroup
from ksums.combinat import binom
from ksums.field import FieldParams

Mat = tuple


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_trace(m: Mat) -> int:
    t = 0
    for i, row in enumerate(m):
        t ^= row[i]
    return t


def mat_mul(fp: FieldParams, a: Mat, b: Mat) -> Mat:
    """a b, each row of which sums the rows of b scaled by mul_table rows."""
    mt = field.mul_table(fp)
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                scale = mt[x]
                acc = [v ^ scale[e] for v, e in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def pack_mat(fp: FieldParams, m: Mat) -> int:
    """Row-major big-endian packing, fp.r bits per entry."""
    key = 0
    r = fp.r
    for row in m:
        for e in row:
            key = (key << r) | e
    return key


def unpack_mat(fp: FieldParams, n: int, key: int) -> Mat:
    r = fp.r
    mask = fp.q - 1
    flat = []
    for shift in range(r * (n * n - 1), -1, -r):
        flat.append((key >> shift) & mask)
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def mat_inv(fp: FieldParams, m: Mat):
    """m^-1 by Gauss-Jordan elimination on [m | 1], or None if m is singular.

    Each pivot x is scaled by its inverse, found as the 1 in its mul_table
    row, not read from inv_table.
    """
    mt = field.mul_table(fp)
    n = len(m)
    rows = [list(row) + list(unit) for row, unit in zip(m, mat_identity(n))]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = mt[mt[rows[col][col]].index(1)]
        rows[col] = [scale[e] for e in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = mt[rows[i][col]]
                rows[i] = [x ^ f[y] for x, y in zip(rows[i], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def invertible_keys(fp: FieldParams, n: int) -> list:
    """pack_mat keys of the invertible n x n matrices, ascending, scanning itertools.product.

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

    return [pack_mat(fp, m) for m in product(product(range(fp.q), repeat=n), repeat=n)
            if all(m[i] not in span(m[:i]) for i in range(n))]


def theta_plus(fp: FieldParams, v) -> int:
    """Hyperbolic quadratic form sum x_i x_(n+i) of a length-2n vector."""
    n = len(v) // 2
    acc = 0
    for i in range(n):
        acc ^= field.mul(fp, v[i], v[n + i])
    return acc


def preserves_theta_plus(fp: FieldParams, m, vectors=None) -> bool:
    """Isometry check theta+(Mv) = theta+(v), exhaustive unless vectors given."""
    if vectors is None:
        vectors = product(range(fp.q), repeat=len(m))
    for v in vectors:
        mv = [row[0] for row in mat_mul(fp, m, tuple((e,) for e in v))]
        if theta_plus(fp, mv) != theta_plus(fp, v):
            return False
    return True


def sigma_perm(n: int, r: int) -> tuple:
    """The involution i <-> n+i for i < r, fixing the other indices of 0..2n-1."""
    first = tuple(range(n, n + r)) + tuple(range(r, n))
    return first + tuple(range(r)) + tuple(range(n + r, 2 * n))


def sigma_plus(n: int, r: int):
    """Coset representative swapping e_i <-> e_(n+i) for i <= r; an involution."""
    perm = sigma_perm(n, r)
    return tuple(tuple(1 if k == j else 0 for k in range(2 * n)) for j in perm)


def permute_cols(m, perm):
    """m s for the permutation matrix s of perm: column j of m s is column perm[j] of m."""
    return tuple(tuple(row[j] for j in perm) for row in m)


def a_r_subgroup(fp: FieldParams, n: int, r: int) -> tuple:
    """{w in P+ : s_r w s_r in P+} in P+'s order, by conjugating each unpacked w."""
    pkeys = orthogroup.enumerate_parabolic(fp, n)
    members = frozenset(pkeys)
    perm = sigma_perm(n, r)
    conj = (permute_cols([m[i] for i in perm], perm)
            for m in (unpack_mat(fp, 2 * n, k) for k in pkeys))
    return tuple(k for k, c in zip(pkeys, conj) if pack_mat(fp, c) in members)


def ordered_traces(f) -> tuple:
    """Tr g_j for the cell elements of family f in canonical (packed-key) order."""
    keys = sorted(orthogroup.bruhat_cell(f.fp, f.n, f.cell_index).elements)
    return tuple(matgf.key_traces(f.fp, 2 * f.n, keys))


def dual_codeword(f, a: int) -> tuple:
    """The bit vector (tr(a Tr g_1), ..., tr(a Tr g_N)); additive in a."""
    fp = f.fp
    field.check_element(fp, a)
    trt = field.trace_table(fp)
    arow = field.mul_table(fp)[a]
    return tuple(trt[arow[t]] for t in ordered_traces(f))


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind S(h, t).

    Computed from the alternating-binomial sum (1/t!) * sum_j (-1)^(t-j) C(t,j) j^h;
    the division by t! is exact.
    """
    if h < 0 or t < 0:
        return 0
    if t > h:
        return 0
    total = sum((-1) ** (t - j) * binom(t, j) * j ** h for j in range(t + 1))
    num, rem = divmod(total, math.factorial(t))
    if rem:
        raise ArithmeticError(f"stirling2({h},{t}): non-exact division")
    return num


def kloosterman_values(fp: FieldParams, m: int = 1, c: int = 1) -> tuple:
    """K_m(lambda(c .); a) for a in F_q^*, slot 0 None, level by level over mul_table.

    K_m(a) = sum over x != 0 of lambda(c x) K_(m-1)(a/x), with K_0 = lambda(c .);
    a/x is mul_table[a][1/x], and 1/x is found in x's row, not read from exp_log.
    """
    mt, lam = field.mul_table(fp), field.char_table(fp)
    lamc = tuple(lam[cy] for cy in mt[c])
    terms = [(lamc[x], mt[x].index(1)) for x in field.units(fp)]
    prev = lamc
    for _ in range(m):
        prev = (None,) + tuple(sum(s * prev[row[xinv]] for s, xinv in terms)
                               for row in mt[1:])
    return prev
