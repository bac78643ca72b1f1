"""The split orthogonal group O+(2n,q) in characteristic 2.

The quadratic form is theta+(x) = x_1 x_(n+1) + ... + x_n x_(2n) on column
vectors of length 2n. Membership is decided on packed keys by one
bit-sliced Gram-matrix pass over all of them (outside_oplus): with T the
top and D the bottom n rows, G = tT D needs a zero diagonal and G + tG = J,
the polar form's matrix; in blocks [[A,B],[C,D]] that is tA C and tB D
alternating and tA D + tC B = 1. The keys are transposed into bit planes,
so each bitwise operation of the pass acts on every key at once. Its oracle, the
isometry test theta+(M v) = theta+(v) on tuple matrices, lives with the
tests. The maximal parabolic P+ consists of
[[A, AB], [0, tA^-1]] with A in GL(n,q) and B alternating, and the group is
the disjoint union over r = 0..n of the double cosets (Bruhat cells)
P+ s_r P+ for involutions s_r swapping the first r hyperbolic coordinate
pairs.

P+ and the cells come from one kernel on keys, _coset_products, which
lists the cosets x P+ of left factors x. P+ = L U is the Levi factors
[[A, 0], [0, tA^-1]] times the group U of [[1, B], [0, 1]], B alternating,
so a coset is (x L) U: the |GL(n,q)| products x l, then U by lane moves.
P+ itself is the coset of the identity; a cell is the products p1 s_r p2,
the cosets of the left factors p1 s_r, so its size stays an
enumeration-side oracle for the closed-form order bookkeeping in
group_counts (which is never consulted while enumerating). The set built
so far is always a union of whole cosets, so a left factor already in it
opens no new coset and is skipped. Cells keep the kernel's set order:
only --elements output sorts them.

Elements are exchanged as packed row-major integer keys (fp.r bits per
entry, big-endian), whose sort order equals the canonical hex ordering of
ksums.matgf.

Every product is read from field.mul_table. The Levi factors are placed
by moving lanes from the (A, A^-1) key pairs of matgf.gl_matrices
(_levi_keys). The keys of x L are an xor of the Levi keys' packed rows,
scaled and copied into row slots by one integer multiplication: one chain
of C-level maps per coset. Then U is walked over its F_2-basis:
y [[1, B], [0, 1]] is y plus an offset made of lanes of y, or of the same
chain scaled by a monomial X^t, moved by masks and shifts, so each element
of y U costs one C-level xor. A packed row
times a field element is built by one lane loop, _scale_row.
A product with the permutation matrix s_r is no product at all: on a key it
swaps lanes i and n+i, entries for K s_r and rows for s_r K (_swap_lanes).
A_r needs no conjugation either: the lanes of w that s_r w s_r moves onto
its lower-left block are one mask, swapped once (a_r_subgroup).
Tr w is read from the diagonal lanes by matgf.key_traces, counted per cell
by cell_trace_histogram.

Inputs are validated once, where they enter, by field.check_int and
field.check_unit (n >= 1 and 0 <= r <= n in _check_cell, which the closed
forms a_r_order, cell_order and cell_sum_coefficient run too; exp_sum_cell's
c); _swap_lanes and the enumeration loops trust them. The
closed forms take q bare, so _check_q refuses any q that is not an int power
of two >= 2. Caches keyed by n or r are typed, so True or 1.0 is refused
rather than served the entry of 1.

FAMILY_LABELS, the labels of the four double-coset families that
ksums.coset_codes builds codes from, is defined here, so that the CLI can
offer them as choices without importing coset_codes; coset_codes imports it
from here.
"""

from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import chain, compress, cycle, repeat
from operator import and_, mul, or_, rshift, xor
from types import MappingProxyType
from typing import NamedTuple

from ksums import charsums, combinat, field, matgf
from ksums.errors import BudgetError, ConsistencyError
from ksums.field import FieldParams

PRODUCT_BUDGET = 10 ** 7  # cap on |P+|^2 before a cell may be materialized
FAMILY_LABELS = ("dc1+", "dc1-", "dc2+", "dc2-")  # coset_codes' families; see the docstring


class BruhatCell(NamedTuple):
    """The materialized P+ s_r P+; its order is len(cell.elements), not len(cell).

    elements stays a tuple, not a frozenset: callers that test membership or
    disjointness pass it to a set method, while a frozenset per cached cell
    raised the peak RSS of `group enum --r 1 --n 3 --elements` and of
    `verify all` at (6,3,10) by about 2 MB (CPython 3.11).
    """

    fp: FieldParams
    n: int
    r: int
    elements: tuple  # packed keys, in no particular order


def _check_cell(n: int, r: int):
    # O+(2n,q) needs n >= 1: group_order(0, q) is 0, not the trivial group's 1
    field.check_int("n", n, 1)
    field.check_int("cell r", r, 0, n)


def _check_q(q: int):
    # the closed forms count over GF(q), q = 2^r; True or 1.5 must not pass
    field.check_int("q", q, 2)
    if q & (q - 1):
        raise ValueError(f"q must be a power of two, got {q}")


def outside_oplus(fp: FieldParams, n: int, keys) -> list:
    """The packed 2n x 2n keys that are not in O+(2n,q), in input order.

    With T the top n rows and D the bottom n rows of M, let G = tT D, so
    theta+(M v) = sum over j, k of G_jk v_j v_k. M is in O+ exactly when
    diag G = 0 (theta+ vanishes on each column) and G + tG = J, J_jk =
    [|j - k| = n] (the polar form is kept); in blocks, tA C and tB D
    alternating and tA D + tC B = 1. Preserving theta+ keeps its
    nondegenerate polar form, so members are invertible.

    All keys are decided in one bit-sliced pass. The keys are transposed
    into 4n^2 fp.r bit planes, bit N-1-i of each plane belonging to key i
    of N, so each operation below acts on every key at once. G_jk is
    accumulated as the coefficients of a polynomial in X of degree at most
    2 fp.r - 2, XOR-ing a_u & b_v into the coefficient of X^(u+v) for each
    product a b; one linear reduction then maps X^s to its field element,
    read from mul_table as X^u X^v, so exp_log stays the only code that
    reduces by the modulus. A key fails where a plane of G_jj, or of G_jk + G_kj + J_jk
    for j < k, has its bit set. A key outside [0, q^(4n^2)) encodes no
    2n x 2n matrix and is reported too; duplicates are kept.
    """
    field.check_int("n", n, 1)
    r, nn = fp.r, 2 * n
    keybits = r * nn * nn
    keys = list(keys)
    if not keys:
        return []
    # the zero matrix is no member (G = 0, so G + tG != J), so it stands in
    # for a key that encodes no matrix and marks it as failing
    text = "".join(format(0 if k >> keybits else k, f"0{keybits}b") for k in keys)
    planes = [int(text[p::keybits], 2) for p in range(keybits)]
    # entry (i, j) of M as its planes, u-th the coefficient of X^u
    entry = [planes[e:e + r][::-1] for e in range(0, keybits, r)]
    mt = field.mul_table(fp)
    # the planes that a coefficient of X^s lands in, s <= 2 fp.r - 2
    lands = [[t for t in range(r) if mt[1 << min(s, r - 1)][1 << max(s - r + 1, 0)] >> t & 1]
             for s in range(2 * r - 1)]
    ones = (1 << len(keys)) - 1

    def gram(j, k, coeffs):  # XOR the coefficients of G_jk into coeffs
        for i in range(n):
            b = entry[(n + i) * nn + k]
            for u, au in enumerate(entry[i * nn + j]):
                if au:
                    for v, bv in enumerate(b, u):
                        coeffs[v] ^= au & bv

    bad = 0
    for j in range(nn):
        for k in range(j, nn):
            coeffs = [0] * (2 * r - 1)
            gram(j, k, coeffs)
            if k != j:
                gram(k, j, coeffs)
                if k == j + n:
                    coeffs[0] ^= ones
            reduced = [0] * r
            for c, ts in zip(coeffs, lands):
                for t in ts:
                    reduced[t] ^= c
            bad |= reduce(or_, reduced)
    return list(compress(keys, map("1".__eq__, format(bad, f"0{len(keys)}b"))))


def parabolic_order(n: int, q: int) -> int:
    field.check_int("n", n, 1)
    _check_q(q)
    return q ** combinat.binom(n, 2) * combinat.gl_order(n, q)


def enumerable(fp: FieldParams, n: int) -> bool:
    """True iff |P+(2n,q)|^2 fits PRODUCT_BUDGET, so cells may be materialized."""
    return parabolic_order(n, fp.q) ** 2 <= PRODUCT_BUDGET


def _check_enum_budget(fp: FieldParams, n: int):
    if not enumerable(fp, n):
        raise BudgetError(f"|P+({2*n},{fp.q})|^2 = {parabolic_order(n, fp.q) ** 2} "
                          f"exceeds product budget {PRODUCT_BUDGET}")


@lru_cache(maxsize=None, typed=True)
def enumerate_parabolic(fp: FieldParams, n: int) -> tuple:
    """Packed keys of P+(2n,q) = L U, sorted ascending: the coset 1 P+ of the kernel.

    Cached for every cell and A_r of (q, n) (verify (6,3,10): 44 hits).
    """
    _check_enum_budget(fp, n)  # checks n through parabolic_order
    nn = 2 * n
    one = sum(1 << fp.r * (nn * nn - 1 - (nn + 1) * i) for i in range(nn))
    return tuple(sorted(_coset_products(fp, n, [one])))


# -- packed-key kernels ------------------------------------------------------

def _scale_row(scale, r: int, lanes: int, v: int) -> int:
    """The packed row v of `lanes` r-bit lanes, each lane e replaced by scale[e].

    With scale the mul_table row of s, this is v times s.
    """
    mask, acc = len(scale) - 1, 0
    for sh in range(r * (lanes - 1), -1, -r):
        acc = (acc << r) | scale[(v >> sh) & mask]
    return acc


@lru_cache(maxsize=None, typed=True)
def _levi_keys(fp: FieldParams, n: int) -> tuple:
    """Keys of the Levi factors [[A, 0], [0, tA^-1]], A in GL(n,q), |GL(n,q)| of them.

    One key per (A, A^-1) pair of matgf.gl_matrices, in its order, placed by
    moving lanes. Cached because P+ and every cell of (q, n) expand their
    cosets over it (verify (6,3,10): 22 hits, 9 misses).
    """
    r, w, lanes = fp.r, fp.r * n, n * n
    rowmask, lane = (1 << w) - 1, fp.q - 1
    keys = []
    for a, ainv in matgf.gl_matrices(fp, n):
        top = bottom = 0
        for i in range(n):
            # row i is row i of A, then n zero lanes; row n+i is n zero
            # lanes, then column i of A^-1, whose entry j sits at lane j n + i
            top = (top << 2 * w) | ((a >> w * (n - 1 - i)) & rowmask) << w
            col = 0
            for j in range(n):
                col = (col << r) | ((ainv >> r * (lanes - 1 - j * n - i)) & lane)
            bottom = (bottom << 2 * w) | col
        keys.append((top << 2 * w * n) | bottom)
    return tuple(keys)


def _coset_products(fp: FieldParams, n: int, left_keys) -> set:
    """Deduplicated keys of the cosets x P+, x in left_keys.

    The set built so far is a union of whole cosets x P+, so a left factor
    already in it opens no new coset and is skipped. A new coset is
    expanded as (x L) U. Row i of x l is the sum over k of x_ik times row k
    of l, so the key of x l is the xor over the pairs (k, s) occurring in x
    of S_(k,s)[l] * M: S_(k,s) lists packed row k of each Levi key, in the
    order of _levi_keys, with each lane times s, and M has a 1 at the low
    bit of each row slot i with x_ik = s, so the product copies the packed
    row into those slots, rowbits apart, and no carries occur. Each S_(k,s)
    is built when first read.

    Then y [[1, B], [0, 1]] = y + [0 | y_L B], y_L the left n columns of y,
    and U is walked over its F_2-basis e_t E_ij (i < j, t < fp.r, e_t = 1 << t
    the monomial X^t). y_L E_ij moves lane i of each row of y to lane n+j
    and lane j to lane n+i: two masks and two right shifts, with no field
    product. So the offset of e_t E_ij is that move on e_t y_L =
    ((e_t x) L)_L, which the same chain builds with each s replaced by
    e_t s and only the pairs with k < n, the rows that reach the left
    lanes. Each basis element doubles the list, one C-level xor per
    element, and y U keeps y_L, so one offset list per basis element serves
    every level. The last level streams into the set.
    """
    r, nn = fp.r, 2 * n
    rowbits, mask = r * nn, fp.q - 1
    rowmask = (1 << rowbits) - 1
    mt = field.mul_table(fp)
    levi = _levi_keys(fp, n)
    column = sum(mask << rowbits * i for i in range(nn))  # the last lane of every row
    lanes = [column << r * (nn - 1 - k) for k in range(n)]  # lane k < n of every row
    moves = [(lanes[i], r * (n + j - i), lanes[j], r * (n + i - j))
             for i in range(n) for j in range(i + 1, n)]
    lists = {}

    def scaled_rows(k, s):
        rows = [(g >> rowbits * (nn - 1 - k)) & rowmask for g in levi]
        if s == 1:
            return rows
        scaled = {v: _scale_row(mt[s], r, nn, v) for v in set(rows)}
        return list(map(scaled.__getitem__, rows))

    def products(mults):  # the keys x l over the Levi keys, for x given by mults
        terms = [map(mul, lists.get(ks) or lists.setdefault(ks, scaled_rows(*ks)), repeat(m))
                 for ks, m in mults.items()]
        return list(reduce(partial(map, xor), terms))

    seen = set()
    for x in left_keys:
        if x in seen:  # x = x' p with x' already expanded, so x P+ = x' P+
            continue
        mults = {}
        for i in range(nn):
            slot = 1 << rowbits * (nn - 1 - i)
            for k in range(nn):
                s = (x >> r * (nn * nn - 1 - i * nn - k)) & mask
                if s:
                    mults[k, s] = mults.get((k, s), 0) | slot
        ys = products(mults)  # x L, in the order of levi
        offsets = []
        for t in range(r if moves else 0):
            et = mt[1 << t]
            zs = ys if t == 0 else products({(k, et[s]): m for (k, s), m in mults.items() if k < n})
            offsets += [list(map(or_, map(rshift, map(and_, zs, repeat(mi)), repeat(si)),
                                 map(rshift, map(and_, zs, repeat(mj)), repeat(sj))))
                        for mi, si, mj, sj in moves]
        level = ys
        for b, off in enumerate(offsets, 1):
            more = map(xor, level, cycle(off))
            level = chain(level, more) if b == len(offsets) else list(chain(level, more))
        seen.update(level)
    return seen


def _swap_lanes(fp: FieldParams, n: int, r: int, keys, rows: bool) -> list:
    """s_r K (rows) or K s_r (columns) of each key: s_r swaps lanes i and n+i, i < r.

    A lane is a row or an entry; hi selects lanes i < r, d bits above n+i.
    """
    nn = 2 * n
    rowbits = fp.r * nn
    w = rowbits if rows else fp.r
    hi = sum(((1 << w) - 1) << w * (nn - 1 - i) for i in range(r))
    if not rows:
        hi *= sum(1 << rowbits * i for i in range(nn))  # the same lanes in every row
    d = w * n
    lo = hi >> d
    keep = ~(hi | lo)
    return [(k & keep) | ((k & hi) >> d) | ((k & lo) << d) for k in keys]


@lru_cache(maxsize=None, typed=True)
def bruhat_cell(fp: FieldParams, n: int, r: int) -> BruhatCell:
    """Materialize the double coset P+ s_r P+ by deduplicating products; cached,
    read again by its trace histogram and the group rows (verify (6,3,10): 34 hits)."""
    _check_cell(n, r)
    _check_enum_budget(fp, n)
    left = _swap_lanes(fp, n, r, enumerate_parabolic(fp, n), rows=False)
    return BruhatCell(fp=fp, n=n, r=r, elements=tuple(_coset_products(fp, n, left)))


def a_r_subgroup(fp: FieldParams, n: int, r: int) -> tuple:
    """Packed keys of {w in P+ : s_r w s_r^-1 in P+}, in the order of P+.

    An element of O+ lies in P+ exactly when its lower-left block C is zero,
    and s_r w s_r (s_r is an involution) is in O+, so w is in A_r exactly
    when the lanes that s_r moves onto C are zero in w: w & m_r == 0, m_r
    the C lanes swapped once by rows and by columns.
    """
    _check_cell(n, r)
    w = fp.r * n
    c_lanes = sum(((1 << w) - 1) << (2 * w * i + w) for i in range(n))
    m_r, = _swap_lanes(fp, n, r, _swap_lanes(fp, n, r, [c_lanes], rows=False), rows=True)
    return tuple(k for k in enumerate_parabolic(fp, n) if not k & m_r)


@lru_cache(maxsize=None, typed=True)
def cell_trace_histogram(fp: FieldParams, n: int, r: int) -> MappingProxyType:
    """Counts of Tr(w) over the materialized cell, as {beta: count}.

    Cached because brute-mode exp_sum_cell reads it once per unit c and gauss_sum_oplus
    once per cell again (verify (6,3,10): 502 hits); `code weights --mode direct`
    reads it once per a (254 hits at r = 8); hence read-only.
    """
    keys = bruhat_cell(fp, n, r).elements
    return MappingProxyType(dict(Counter(matgf.key_traces(fp, 2 * n, keys))))


def group_order(n: int, q: int) -> int:
    """|O+(2n,q)| = 2 q^(n^2-n) (q^n - 1) prod_(j<n) (q^2j - 1)."""
    field.check_int("n", n, 1)
    _check_q(q)
    out = 2 * q ** (n * n - n) * (q ** n - 1)
    for j in range(1, n):
        out *= q ** (2 * j) - 1
    return out


def a_r_order(n: int, r: int, q: int) -> int:
    _check_cell(n, r)
    _check_q(q)
    # q-exponent C(n,2) + r(2n-3r+1)/2 is an integer and >= 0 for 0 <= r <= n
    # (concave in r, zero at r = n), so this stays in exact ints
    exp2 = 2 * combinat.binom(n, 2) + r * (2 * n - 3 * r + 1)
    if exp2 % 2 or exp2 < 0:
        raise ConsistencyError("A_r exponent must be a nonnegative integer", n=n, r=r)
    return combinat.gl_order(r, q) * combinat.gl_order(n - r, q) * q ** (exp2 // 2)


def cell_order(n: int, r: int, q: int) -> int:
    _check_cell(n, r)
    _check_q(q)
    return (q ** combinat.binom(n, 2) * combinat.gl_order(n, q)
            * combinat.q_binomial(n, r, q) * q ** combinat.binom(r, 2))


def group_counts(n: int, q: int) -> dict:
    """Closed-form order bookkeeping for O+(2n,q), with internal identities checked."""
    field.check_int("n", n, 1)
    _check_q(q)
    gl = [combinat.gl_order(t, q) for t in range(n + 1)]
    qbin = [combinat.q_binomial(n, r, q) for r in range(n + 1)]
    p_order = parabolic_order(n, q)
    a_orders = [a_r_order(n, r, q) for r in range(n + 1)]
    indices = [qbin[r] * q ** combinat.binom(r, 2) for r in range(n + 1)]
    cells = [cell_order(n, r, q) for r in range(n + 1)]
    s_counts = [combinat.nonsingular_symmetric_count(r, q) for r in range(n + 1)]
    closed = group_order(n, q)
    for r in range(n + 1):
        lhs = gl[n]
        rhs = combinat.gl_order(n - r, q) * combinat.gl_order(r, q) * q ** (r * (n - r)) * qbin[r]
        if lhs != rhs:
            raise ConsistencyError("gl factorization identity failed", n=n, r=r, q=q)
        if p_order ** 2 != a_orders[r] * cells[r]:
            raise ConsistencyError("cell size identity failed", n=n, r=r, q=q)
        if p_order != a_orders[r] * indices[r]:
            raise ConsistencyError("coset index identity failed", n=n, r=r, q=q)
    qbt = sum(qbin[r] * q ** combinat.binom(r, 2) for r in range(n + 1))
    if qbt != combinat.q_pochhammer(-1, q, n):
        raise ConsistencyError("q-binomial theorem at x=-1 failed", n=n, q=q)
    if sum(cells) != closed:
        raise ConsistencyError("cell sizes do not sum to the group order", n=n, q=q)
    return {
        "n": n,
        "q": q,
        "gl_orders": gl,
        "q_binomials": qbin,
        "parabolic_order": p_order,
        "a_r_orders": a_orders,
        "parabolic_indices": indices,
        "cell_orders": cells,
        "nonsingular_symmetric": s_counts,
        "group_order": closed,
    }


def cell_sum_coefficient(n: int, r: int, q: int) -> int:
    """The integer coeff with sum over P+ s_r P+ of psi(Tr w) = coeff * K_GL(n-r)(psi; 1)."""
    _check_cell(n, r)
    _check_q(q)
    return (q ** combinat.binom(n, 2) * combinat.q_binomial(n, r, q)
            * q ** (r * (2 * n - r - 1) // 2) * combinat.nonsingular_symmetric_count(r, q))


def exp_sum_cell(fp: FieldParams, n: int, r: int, c: int = 1, mode: str = "formula") -> int:
    """Character sum of psi(Tr w) over the cell P+ s_r P+, psi = lambda(c .).

    Formula mode multiplies cell_sum_coefficient by the GL Kloosterman sum
    K_GL(n-r)(psi;1); brute mode sums over the materialized cell's trace
    histogram.
    """
    field.check_unit(fp, c, "c")
    _check_cell(n, r)
    if mode == "brute":
        lam = field.char_table(fp)
        crow = field.mul_table(fp)[c]
        hist = cell_trace_histogram(fp, n, r)
        return sum(cnt * lam[crow[beta]] for beta, cnt in hist.items())
    if mode != "formula":
        raise ValueError(f"unknown mode {mode!r}")
    return (cell_sum_coefficient(n, r, fp.q)
            * charsums.kloosterman_gl(fp, n - r, 1, method="recursion", c=c))


def gauss_sum_oplus(fp: FieldParams, n: int, c: int = 1, mode: str = "formula") -> int:
    """Character sum of psi(Tr w) over all of O+(2n,q)."""
    field.check_int("n", n, 1)
    return sum(exp_sum_cell(fp, n, r, c, mode) for r in range(n + 1))
