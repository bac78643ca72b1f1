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

P+ and the cells come from one kernel on keys, _coset_words, which
expands the cosets x P+ of left factors x. P+ = L U is the Levi factors
[[A, 0], [0, tA^-1]] times the group U of [[1, B], [0, 1]], B alternating,
so a coset is (x L) U: the |GL(n,q)| products x l, then U by lane moves.
P+ itself is the coset of the identity; a cell is the products p1 s_r p2,
the cosets of the left factors p1 s_r, so its size stays an
enumeration-side oracle for the closed-form order bookkeeping in
group_counts (which is never consulted while enumerating). No set
deduplicates them: P+ is the stabilizer of the totally singular subspace
<e_1..e_n>, so x' P+ = x0 P+ exactly when the lower-left block of
x0^-1 x' is zero, and one bit-sliced scan over the planes of P+ picks
one left factor of each coset (_coset_representatives), the same
transposition into bit planes that outside_oplus reads (matgf.key_planes).
A cell is stored coset by coset as one read-only buffer of unsigned
64-bit keys, 8 bytes per key (see BruhatCell): only --elements output
sorts them.

Elements are exchanged as packed row-major integer keys (fp.r bits per
entry, big-endian), whose sort order equals the canonical hex ordering of
ksums.matgf.

Every product is read from field.mul_table. The Levi factors come from
matgf's one pass over GL(n,q) (_levi_keys): the planes of every n x n
matrix A, det A and its cofactors give tA^-1, both blocks are placed in
the planes of the 2n x 2n layout, and one transposition reads the keys,
one native 64-bit word each. A coset is expanded on ints that hold one
key per word, so no key is an int of its own: the words of x L are an
xor of the Levi keys' packed rows, scaled lane by lane and copied into
row slots by one integer multiplication each, carry-free because a key
has at most 52 bits. Then U is walked over its F_2-basis:
y [[1, B], [0, 1]] is y plus an offset made of lanes of y, or of the same
products scaled by a monomial X^t, moved by masks and shifts, so each
basis element doubles the words by one xor and one shift.
A product with the permutation matrix s_r is no product at all: on a key it
swaps lanes i and n+i, entries for K s_r and rows for s_r K, by one delta
swap per key (_swap_lanes).
A_r needs no conjugation either: the lanes of w that s_r w s_r moves onto
its lower-left block are one mask, swapped once (a_r_subgroup).
A cell's record carries its trace histogram, Tr w counted in the one byte
per key that matgf.key_traces reads off its buffer once, as the cell is
built. A cell's character sums at every scale c are one cached tuple,
cell_sums, by formula or from that histogram.

The order bookkeeping, group_counts, is the closed forms only, in O(n)
big-int products: one running product of |GL(t,q)| for t <= n and one row
of q-binomials by their ratio recurrence (combinat.gl_orders,
combinat.q_binomials), each order formula written once and shared with the
single-value parabolic_order, cell_order and cell_sum_coefficient. Its
identities, |P+| = |A_r| [P+ : A_r] among them, are verify rows proved for
every q at each n; it checks none of them itself.

Inputs are validated once, where they enter, by field.check_int (n >= 1
and 0 <= r <= n in _check_cell, which the closed forms cell_order,
cell_sum_coefficient and cell_sums run too); _swap_lanes and
the enumeration loops trust them. The closed forms take q bare, so _check_q
refuses any q that is not an int power of two >= 2. Caches keyed by n or r
are typed, so True or 1.0 is refused rather than served the entry of 1.

FAMILY_LABELS, the labels of the four double-coset families that
ksums.coset_codes builds codes from, is defined here, so that the CLI can
offer them as choices without importing coset_codes; coset_codes imports it
from here.
"""

import sys
from functools import lru_cache, reduce
from itertools import compress
from operator import or_, xor
from types import MappingProxyType
from typing import NamedTuple

from ksums import charsums, combinat, field, matgf
from ksums.errors import BudgetError, charge
from ksums.field import FieldParams

PRODUCT_BUDGET = 10 ** 7  # cap on |P+|^2 before a cell may be materialized
FAMILY_LABELS = ("dc1+", "dc1-", "dc2+", "dc2-")  # coset_codes' families; see the docstring


class BruhatCell(NamedTuple):
    """The materialized P+ s_r P+; its order is len(cell.elements), not len(cell).

    trace_histogram maps beta -> #{w in the cell : Tr w = beta}, beta
    ascending and with no zero counts; read-only, like elements.
    elements is a read-only memoryview of one array('Q'), 8 bytes per key
    where a tuple of ints took about 40 (CPython 3.11): O+(6,2)'s 40,320
    keys fill 0.3 MB, not 1.6 MB. The keys come coset by coset, each coset
    x P+ as |P+| consecutive words. Every key fits a word, since an enumerable
    (q, n) has 2 fp.r n^2 - 4 < 24 (PRODUCT_BUDGET's bit length), so a key
    has 4 fp.r n^2 <= 52 bits. Read-only because the cell is cached and
    shared; iterating or sorting it builds new ints. A memoryview of format
    'Q' refuses hash, so a cell is not hashable: it is never a cache key,
    whose caches are keyed by (fp, n, r).
    """

    fp: FieldParams
    n: int
    r: int
    elements: memoryview  # packed keys, coset by coset
    trace_histogram: MappingProxyType  # {beta: count}


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
    of N, so each operation below acts on every key at once. Each G_jk, or
    G_jk + G_kj for j < k, is one sum of products by matgf.plane_dot. A key
    fails where a plane of G_jj, or of G_jk + G_kj + J_jk for j < k, has its
    bit set. A key outside [0, q^(4n^2)) encodes no 2n x 2n matrix and is
    reported too; duplicates are kept.
    """
    field.check_int("n", n, 1)
    r, nn = fp.r, 2 * n
    keybits = r * nn * nn
    keys = list(keys)
    # the zero matrix is no member (G = 0, so G + tG != J), so it stands in
    # for a key that encodes no matrix and marks it as failing
    entry = matgf.key_planes(fp, nn, [0 if k >> keybits else k for k in keys])
    dot = matgf.plane_dot(fp)
    ones = (1 << len(keys)) - 1

    def gram(j, k):  # the products of G_jk = sum over i of T_ij D_ik
        return [(entry[i * nn + j], entry[(n + i) * nn + k]) for i in range(n)]

    bad = 0
    for j in range(nn):
        for k in range(j, nn):
            g = dot(gram(j, k) + gram(k, j) if k != j else gram(j, k))
            if k == j + n:
                g[0] ^= ones
            bad |= reduce(or_, g)
    return list(compress(keys, map("1".__eq__, format(bad, f"0{len(keys)}b"))))


def parabolic_order(n: int, q: int) -> int:
    field.check_int("n", n, 1)
    _check_q(q)
    return _parabolic(n, q, combinat.gl_order(n, q))


def enumerable(fp: FieldParams, n: int) -> bool:
    """True iff |P+(2n,q)|^2 fits PRODUCT_BUDGET, so cells may be materialized.

    |P+| >= |GL(n,q)| > q^(n^2) prod over j >= 1 of (1 - 2^-j) > 2^(r n^2 - 2), so once
    2 r n^2 - 4 reaches the budget's bit length the answer is no, without forming the order.
    """
    field.check_int("n", n, 1)
    if 2 * fp.r * n * n - 4 >= PRODUCT_BUDGET.bit_length():
        return False
    return parabolic_order(n, fp.q) ** 2 <= PRODUCT_BUDGET


def _check_enum_budget(fp: FieldParams, n: int):
    if not enumerable(fp, n):  # no order in the message: at large n it has millions of digits
        raise BudgetError(f"|P+({2*n},{fp.q})|^2 exceeds product budget {PRODUCT_BUDGET}")


@lru_cache(maxsize=None, typed=True)
def enumerate_parabolic(fp: FieldParams, n: int) -> tuple:
    """Packed keys of P+(2n,q) = L U, sorted ascending: the coset 1 P+ of the kernel.

    Cached for every cell and A_r of (q, n) (verify (6,3,10): 75 hits).
    """
    _check_enum_budget(fp, n)  # checks n
    nn = 2 * n
    one = sum(1 << fp.r * (nn * nn - 1 - (nn + 1) * i) for i in range(nn))
    words, = _coset_words(fp, n, [one])
    return tuple(sorted(memoryview(words).cast("Q")))


# -- packed-key kernels ------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def _parabolic_planes(fp: FieldParams, n: int) -> tuple:
    """matgf.key_planes of P+, in the order of enumerate_parabolic.

    Cached because every cell of (q, n) scans it for its coset
    representatives (verify (6,3,10): 13 hits, 9 misses).
    """
    return tuple(map(tuple, matgf.key_planes(fp, 2 * n, enumerate_parabolic(fp, n))))


def _coset_representatives(fp: FieldParams, n: int, r: int) -> list:
    """One left factor p s_r, p in P+, of each coset x P+ in P+ s_r P+.

    x' P+ = x0 P+ exactly when x0^-1 x' is in P+, that is when its
    lower-left block is zero, both being in O+. With J = [[0, 1], [1, 0]],
    x0^-1 = J tx0 J, whose rows n.. are the first n rows of t(J x0), so
    entry (j, k) of that block is the sum over i < 2n of
    x0[i+n mod 2n][j] x'[i][k], tC0 A' + tA0 C' in blocks. One bit-sliced pass over the planes of P+
    (_parabolic_planes), its columns i and n+i swapped for i < r, decides
    it for every left factor x' at once: a constant c times an entry is,
    plane by plane, an xor of the entry's planes u with bit t of c X^u set.
    The scan takes the first left factor not yet covered as x0 and drops
    its coset from the remaining keys; those planes u are listed for each
    c that some x0 has, when first read.
    """
    fr, nn = fp.r, 2 * n
    mask, mt = fp.q - 1, field.mul_table(fp)
    pkeys, entry = enumerate_parabolic(fp, n), _parabolic_planes(fp, n)
    swap = [(c + n) % nn if c % n < r else c for c in range(nn)]  # the columns of p s_r
    cols = [[entry[i * nn + swap[k]] for i in range(nn)] for k in range(n)]
    lands = {}  # lands[c][t]: the u with bit t of c X^u set

    def landing(c):
        return [[u for u in range(fr) if mt[c][1 << u] >> t & 1] for t in range(fr)]

    reps, remaining = [], (1 << len(pkeys)) - 1
    while remaining:
        top = remaining.bit_length() - 1
        x, = _swap_lanes(fp, n, r, [pkeys[len(pkeys) - 1 - top]], rows=False)
        remaining ^= 1 << top  # dropped even if a wrong table kept it outside its own coset
        outside = 0
        for j in range(n):
            # column j of J x0: entry i is x0[i+n mod 2n][j]
            cs = [(x >> fr * (nn * nn - 1 - (i + n) % nn * nn - j)) & mask for i in range(nn)]
            for col in cols:
                z = [0] * fr
                for c, e in zip(cs, col):
                    if c:
                        for t, us in enumerate(lands.get(c) or lands.setdefault(c, landing(c))):
                            for u in us:
                                z[t] ^= e[u]
                outside |= reduce(or_, z)
        remaining &= outside
        reps.append(x)
    return reps


@lru_cache(maxsize=None, typed=True)
def _levi_keys(fp: FieldParams, n: int) -> bytes:
    """Keys of the Levi factors [[A, 0], [0, tA^-1]], A in GL(n,q), as native 64-bit words.

    One pass over every n x n matrix A as one slice of bit planes
    (matgf.matrix_planes): det A and each cofactor C_ij, the minor off row
    i and column j (matgf.minors), give (tA^-1)_ij = C_ij det^(q-2)
    (matgf.plane_quotients). The planes of A and tA^-1 fill the blocks of
    the 2n x 2n layout, one transposition reads the keys off them
    (matgf.plane_keys), and the keys where det A != 0 are kept: |GL(n,q)|
    words, ascending. Cached because P+ and every cell of (q, n) expand
    their cosets over it (verify (6,3,10): 22 hits, 9 misses).
    """
    r, bits = fp.r, fp.r * n * n
    count = 1 << bits
    dot = matgf.plane_dot(fp)
    entry, = matgf.matrix_planes(fp, n, bits)
    minor = matgf.minors(dot, n, entry, [(1 << count) - 1] + [0] * (r - 1))
    rows, cols = tuple(range(n)), (1 << n) - 1
    det = minor(rows, cols)
    cofactors = [minor(rows[:i] + rows[i + 1:], cols ^ 1 << j) for i in rows for j in rows]
    inverse_t = matgf.plane_quotients(dot, cofactors, det)
    pad = [[0] * r] * n  # n zero entries
    blocks = []
    for i in range(0, n * n, n):
        blocks += entry[i:i + n] + pad
    for i in range(0, n * n, n):
        blocks += pad + inverse_t[i:i + n]
    keys = matgf.plane_keys(fp, 2 * n, blocks, count)
    units = map("1".__eq__, format(reduce(or_, det), f"0{count}b"))
    return b"".join(key.to_bytes(8, sys.byteorder) for key in compress(keys, units))


def _coset_words(fp: FieldParams, n: int, left_keys):
    """Yield the keys of each coset x P+, x in left_keys, as bytes of native 64-bit words.

    A coset is expanded as (x L) U on ints that hold one key per 64-bit
    word, so each operation below acts on every key at once and no key is
    an int of its own. Row i of x l is the sum over k of x_ik times row k
    of l, so the words of x L are the xor over the pairs (k, s) occurring
    in x of S_(k,s) * M: S_(k,s) holds packed row k of each Levi key, in
    the order of _levi_keys, with each lane times s, and M has a 1 at the
    low bit of each row slot i with x_ik = s. The product copies each
    word's row into those slots, rowbits apart; a key has at most 52 bits,
    so no carry leaves its word. s times a lane is the xor, over its set
    bits u, of s X^u, so S_(k,s) is fp.r masked shifts of S_(k,1), each
    times the field element s X^u < q. Each S_(k,s) is built when first
    read.

    Then y [[1, B], [0, 1]] = y + [0 | y_L B], y_L the left n columns of y,
    and U is walked over its F_2-basis e_t E_ij (i < j, t < fp.r, e_t = 1 << t
    the monomial X^t). y_L E_ij moves lane i of each row of y to lane n+j
    and lane j to lane n+i: two masks and two right shifts, with no field
    product, that keep every lane in its word. So the offset of e_t E_ij is
    that move on e_t y_L = ((e_t x) L)_L, which the same products build with
    each s replaced by e_t s and only the pairs with k < n, the rows that
    reach the left lanes. y U keeps y_L, so one offset serves every level:
    each basis element doubles the words by one xor with the offset
    repeated, then a shift. The words of x P+ are |P+| = |GL(n,q)| 2^b,
    b = fp.r C(n, 2).
    """
    r, nn = fp.r, 2 * n
    rowbits, mask = r * nn, fp.q - 1
    mt = field.mul_table(fp)
    levi = _levi_keys(fp, n)
    order = sys.byteorder
    ones = int.from_bytes((1).to_bytes(8, order) * (len(levi) // 8), order)  # bit 0 of each word
    table = int.from_bytes(levi, order)
    rowmask = ((1 << rowbits) - 1) * ones
    lsb = sum(1 << r * i for i in range(nn)) * ones  # bit 0 of each lane of a row
    column = sum(mask << rowbits * i for i in range(nn))  # the last lane of every row
    lanes = [(column << r * (nn - 1 - k)) * ones for k in range(n)]  # lane k < n of every row
    moves = [(lanes[i], r * (n + j - i), lanes[j], r * (n + i - j))
             for i in range(n) for j in range(i + 1, n)]
    rows = {}

    def scaled_rows(k, s):
        row = (table >> rowbits * (nn - 1 - k)) & rowmask
        if s == 1:
            return row
        return reduce(xor, [((row >> u) & lsb) * mt[s][1 << u] for u in range(r)])

    def products(mults):  # the words of x L, for x given by mults
        return reduce(xor, [(rows.get(ks) or rows.setdefault(ks, scaled_rows(*ks))) * m
                            for ks, m in mults.items()], 0)

    for x in left_keys:
        mults = {}
        for i in range(nn):
            slot = 1 << rowbits * (nn - 1 - i)
            for k in range(nn):
                s = (x >> r * (nn * nn - 1 - i * nn - k)) & mask
                if s:
                    mults[k, s] = mults.get((k, s), 0) | slot
        level = products(mults)  # x L, in the order of levi
        offsets = []
        for t in range(r if moves else 0):
            et = mt[1 << t]
            zs = level if t == 0 else products(
                {(k, et[s]): m for (k, s), m in mults.items() if k < n})
            offsets += [((zs & mi) >> si) | ((zs & mj) >> sj) for mi, si, mj, sj in moves]
        bits = 8 * len(levi)  # the level's
        for off in offsets:
            copies = 8 * len(levi)  # off's bits, repeated so far
            while copies < bits:
                off |= off << copies
                copies *= 2
            level |= (level ^ off) << bits
            bits *= 2
        yield level.to_bytes(bits // 8, order)


def _swap_lanes(fp: FieldParams, n: int, r: int, keys, rows: bool) -> list:
    """s_r K (rows) or K s_r (columns) of each key, in order: s_r swaps lanes i and n+i, i < r.

    A lane is a row or an entry; lo selects lanes n+i, i < r, and lane i is
    d bits above n+i. A delta swap: t = ((k >> d) ^ k) & lo is each pair's
    xor, and k ^ t ^ (t << d) exchanges the pairs; t and t << d share no
    bit, so t ^ (t << d) = t (2^d + 1). Five operations per key; on CPython
    3.11 this comprehension beat the same operations chained through
    C-level maps.
    """
    nn = 2 * n
    rowbits = fp.r * nn
    w = rowbits if rows else fp.r
    lo = sum(((1 << w) - 1) << w * (n - 1 - i) for i in range(r))
    if not rows:
        lo *= sum(1 << rowbits * i for i in range(nn))  # the same lanes in every row
    d = w * n
    both = (1 << d) + 1
    return [k ^ ((k >> d ^ k) & lo) * both for k in keys]


@lru_cache(maxsize=None, typed=True)
def bruhat_cell(fp: FieldParams, n: int, r: int) -> BruhatCell:
    """Materialize the double coset P+ s_r P+ coset by coset, with its trace
    histogram; cached, read again by cell_sums, the group rows and the code
    rows (verify (6,3,10): 34 hits).

    _coset_representatives picks one left factor of each coset x P+, and
    _coset_words writes each coset's keys into the cell's buffer, sized
    once. The histogram is counted from the buffer: matgf.key_traces reads
    it, one byte per key, and each beta is one bytes.count.
    """
    _check_cell(n, r)
    _check_enum_budget(fp, n)
    from array import array  # an extension module: only requests that build a cell import it

    reps = _coset_representatives(fp, n, r)
    keys = array("Q", [0]) * (len(reps) * len(enumerate_parabolic(fp, n)))  # no spare capacity
    with memoryview(keys) as view, view.cast("B") as out:
        start = 0
        for words in _coset_words(fp, n, reps):
            out[start:start + len(words)] = words
            start += len(words)
    elements = memoryview(keys).toreadonly()
    traces = matgf.key_traces(fp, 2 * n, elements)
    hist = {beta: count for beta in range(fp.q) if (count := traces.count(beta))}
    return BruhatCell(fp=fp, n=n, r=r, elements=elements, trace_histogram=MappingProxyType(hist))


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


def _parabolic(n, q, gl_n):  # |P+| = q^C(n,2) |GL(n,q)|
    return q ** combinat.binom(n, 2) * gl_n


def _a_r(n, r, q, gl_r, gl_rest):
    # |A_r| = |GL(r)| |GL(n-r)| q^(C(n,2) + r(2n-3r+1)/2): r(2n-3r+1) is even, and
    # the exponent is >= 0 for 0 <= r <= n (concave in r, zero at r = n)
    return gl_r * gl_rest * q ** (combinat.binom(n, 2) + r * (2 * n - 3 * r + 1) // 2)


def _index(r, q, qbin_r):  # [P+ : A_r] = [n r]_q q^C(r,2); |P+ s_r P+| = |P+| [P+ : A_r]
    return qbin_r * q ** combinat.binom(r, 2)


def group_order(n: int, q: int) -> int:
    """|O+(2n,q)| = 2 q^(n^2-n) (q^n - 1) prod_(j<n) (q^2j - 1)."""
    field.check_int("n", n, 1)
    _check_q(q)
    out = 2 * q ** (n * n - n) * (q ** n - 1)
    for j in range(1, n):
        out *= q ** (2 * j) - 1
    return out


def cell_order(n: int, r: int, q: int) -> int:
    _check_cell(n, r)
    _check_q(q)
    return parabolic_order(n, q) * _index(r, q, combinat.q_binomial(n, r, q))


def group_counts(n: int, q: int) -> dict:
    """Closed-form order bookkeeping for O+(2n,q), in O(n) big-int products.

    The closed forms only: their identities are verify rows, proved there for
    every q at each n. Charged before any work, as its lists hold about
    4 (n + 2) n^2 log2 q bits.
    """
    field.check_int("n", n, 1)
    _check_q(q)
    charge(4 * (n + 2) * n * n * (q.bit_length() - 1),
           "order lists of O+({0},2^{1})", "lower n", 2 * n, q.bit_length() - 1)
    gl, qbin = list(combinat.gl_orders(n, q)), list(combinat.q_binomials(n, q))
    p_order = _parabolic(n, q, gl[n])
    indices = [_index(r, q, b) for r, b in enumerate(qbin)]
    return {
        "n": n,
        "q": q,
        "gl_orders": gl,
        "q_binomials": qbin,
        "parabolic_order": p_order,
        "a_r_orders": [_a_r(n, r, q, gl[r], gl[n - r]) for r in range(n + 1)],
        "parabolic_indices": indices,
        "cell_orders": [p_order * index for index in indices],
        "nonsingular_symmetric": [combinat.nonsingular_symmetric_count(r, q)
                                  for r in range(n + 1)],
        "group_order": group_order(n, q),
    }


def cell_sum_coefficient(n: int, r: int, q: int) -> int:
    """The integer coeff with sum over P+ s_r P+ of psi(Tr w) = coeff * K_GL(n-r)(psi; 1)."""
    _check_cell(n, r)
    _check_q(q)
    return (q ** (combinat.binom(n, 2) + r * (n - r)) * _index(r, q, combinat.q_binomial(n, r, q))
            * combinat.nonsingular_symmetric_count(r, q))


@lru_cache(maxsize=None, typed=True)
def cell_sums(fp: FieldParams, n: int, r: int, mode: str, /) -> tuple:
    """Tuple indexed by c with the sum of lambda(c Tr w) over the cell P+ s_r P+; slot 0 is None.

    Formula mode is cell_sum_coefficient, computed once, times entry c^2 of
    charsums.kloosterman_gl_table(fp, n-r, "recursion"), since
    K_GL(n-r)(lambda(c .); 1) = K_GL(n-r)(lambda; c^2). Brute mode sums
    over the cell's BruhatCell.trace_histogram. Cached: every c of verify's
    cell rows and of a family's dual weights, and each read of its dual
    weight histogram, reads one tuple (verify (6,3,10): 38 hits, 62 misses;
    `code weights --r 8`: 254 hits).
    """
    _check_cell(n, r)
    mt = field.mul_table(fp)
    if mode == "brute":
        lam = field.char_table(fp)
        hist = bruhat_cell(fp, n, r).trace_histogram.items()
        return (None,) + tuple(sum(cnt * lam[row[beta]] for beta, cnt in hist)
                               for row in mt[1:])
    if mode != "formula":
        raise ValueError(f"unknown mode {mode!r}")
    coeff = cell_sum_coefficient(n, r, fp.q)
    gl = charsums.kloosterman_gl_table(fp, n - r, "recursion")
    return (None,) + tuple(coeff * gl[row[c]] for c, row in enumerate(mt[1:], 1))
