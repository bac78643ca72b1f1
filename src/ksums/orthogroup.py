"""The split orthogonal group O+(2n,q) in characteristic 2.

The quadratic form is theta+(x) = x_1 x_(n+1) + ... + x_n x_(2n) on column
vectors of length 2n. Membership is decided by block conditions on
[[A,B],[C,D]]: tA C and tB D alternating and tA D + tC B = 1. The maximal
parabolic P+ consists of [[A, AB], [0, tA^-1]] with A in GL(n,q) and B
alternating, and the group is the disjoint union over r = 0..n of the
double cosets (Bruhat cells) P+ s_r P+ for involutions s_r swapping the
first r hyperbolic coordinate pairs.

Cells are materialized by deduplicating the |P+|^2 products p1 s_r p2, so
their sizes stay an enumeration-side oracle for the closed-form order
bookkeeping in group_counts (which is never consulted while enumerating).
Dedup exploits only that P+ is multiplicatively closed: the accumulated set
is always a union of complete left cosets x P+, so a product already seen
lets the whole inner loop be skipped without changing the result set.

Elements are exchanged as packed row-major integer keys (fp.r bits per
entry, big-endian), whose sort order equals the canonical hex ordering of
ksums.matgf.

Every product is read from field.mul_table: matrices multiply through
matgf.mat_mul, and cells through one packed-row kernel, _coset_products,
which xors p's packed rows where x has a 1 and scales the lanes of a row
through a mul_table row otherwise. A product with the permutation matrix
s_r is no product at all: it permutes rows or columns (_sigma_perm). Field
inputs are validated once, where they enter (exp_sum_cell's c, theta_plus's
entries); the enumeration loops trust them.
"""

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from ksums import charsums, combinat, field, matgf
from ksums.errors import BudgetError, ConsistencyError
from ksums.field import FieldParams

PRODUCT_BUDGET = 10 ** 7  # cap on |P+|^2 before a cell may be materialized


class BruhatCell(NamedTuple):
    """The materialized P+ s_r P+; its order is len(cell.elements), not len(cell)."""

    fp: FieldParams
    n: int
    r: int
    elements: tuple  # packed keys, sorted ascending


def theta_plus(fp: FieldParams, v) -> int:
    """Hyperbolic quadratic form sum x_i x_(n+i) of a length-2n vector."""
    if len(v) % 2:
        raise ValueError(f"vector length {len(v)} is odd")
    n = len(v) // 2
    acc = 0
    for i in range(n):
        acc ^= field.mul(fp, v[i], v[n + i])
    return acc


def _sigma_perm(n: int, r: int) -> tuple:
    """The involution i <-> n+i for i < r, fixing the other indices of 0..2n-1."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    first = tuple(range(n, n + r)) + tuple(range(r, n))
    return first + tuple(range(r)) + tuple(range(n + r, 2 * n))


def sigma_plus(n: int, r: int):
    """Coset representative swapping e_i <-> e_(n+i) for i <= r; an involution."""
    perm = _sigma_perm(n, r)
    return tuple(tuple(1 if k == j else 0 for k in range(2 * n)) for j in perm)


def _permute_cols(m, perm):
    """m s for the permutation matrix s of perm: column j of m s is column perm[j] of m."""
    return tuple(tuple(row[j] for j in perm) for row in m)


def _split_blocks(m):
    n = len(m) // 2
    a = tuple(row[:n] for row in m[:n])
    b = tuple(row[n:] for row in m[:n])
    c = tuple(row[:n] for row in m[n:])
    d = tuple(row[n:] for row in m[n:])
    return a, b, c, d


def is_in_oplus(fp: FieldParams, m) -> bool:
    """Membership by the (tA C, tB D, tA D + tC B) block conditions."""
    if len(m) % 2:
        return False
    a, b, c, d = _split_blocks(m)
    at, bt, ct = matgf.mat_transpose(a), matgf.mat_transpose(b), matgf.mat_transpose(c)
    if not matgf.mat_is_alternating(matgf.mat_mul(fp, at, c)):
        return False
    if not matgf.mat_is_alternating(matgf.mat_mul(fp, bt, d)):
        return False
    lhs = matgf.mat_add(matgf.mat_mul(fp, at, d), matgf.mat_mul(fp, ct, b))
    return lhs == matgf.mat_identity(len(a))


def is_in_oplus_alt(fp: FieldParams, m) -> bool:
    """Membership by the transposed conditions (A tB, C tD, A tD + B tC)."""
    if len(m) % 2:
        return False
    a, b, c, d = _split_blocks(m)
    bt, dt = matgf.mat_transpose(b), matgf.mat_transpose(d)
    if not matgf.mat_is_alternating(matgf.mat_mul(fp, a, bt)):
        return False
    if not matgf.mat_is_alternating(matgf.mat_mul(fp, c, dt)):
        return False
    lhs = matgf.mat_add(matgf.mat_mul(fp, a, dt), matgf.mat_mul(fp, b, matgf.mat_transpose(c)))
    return lhs == matgf.mat_identity(len(a))


def preserves_theta_plus(fp: FieldParams, m, vectors=None) -> bool:
    """Isometry check theta+(Mv) = theta+(v), exhaustive unless vectors given."""
    if vectors is None:
        vectors = product(range(fp.q), repeat=len(m))
    for v in vectors:
        mv = [row[0] for row in matgf.mat_mul(fp, m, tuple((e,) for e in v))]
        if theta_plus(fp, mv) != theta_plus(fp, v):
            return False
    return True


def parabolic_order(n: int, q: int) -> int:
    return q ** combinat.binom(n, 2) * combinat.gl_order(n, q)


def _alternating_matrices(fp: FieldParams, n: int):
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for vals in product(range(fp.q), repeat=len(slots)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(slots, vals):
            m[i][j] = v
            m[j][i] = v
        yield tuple(tuple(row) for row in m)


def enumerable(fp: FieldParams, n: int) -> bool:
    """True iff |P+(2n,q)|^2 fits PRODUCT_BUDGET, so cells may be materialized."""
    return parabolic_order(n, fp.q) ** 2 <= PRODUCT_BUDGET


def _check_witt_index(n: int):
    # O+(2n,q) needs n >= 1: group_order(0, q) is 0, not the trivial group's 1
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _check_enum_budget(fp: FieldParams, n: int):
    if not enumerable(fp, n):
        raise BudgetError(f"|P+({2*n},{fp.q})|^2 = {parabolic_order(n, fp.q) ** 2} "
                          f"exceeds product budget {PRODUCT_BUDGET}")


@lru_cache(maxsize=None)
def parabolic_matrices(fp: FieldParams, n: int) -> tuple:
    """All elements [[A, AB], [0, tA^-1]] of P+(2n,q), as matrices, sorted by key."""
    _check_witt_index(n)
    _check_enum_budget(fp, n)
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    alts = tuple(_alternating_matrices(fp, n))
    out = []
    for a, ainv in matgf.gl_matrices(fp, n):
        lower = matgf.mat_transpose(ainv)
        for b in alts:
            ab = matgf.mat_mul(fp, a, b)
            m = tuple(ra + rb for ra, rb in zip(a, ab)) + tuple(
                rz + rl for rz, rl in zip(zero, lower))
            out.append(m)
    out.sort(key=lambda m: matgf.pack_mat(fp, m))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_parabolic(fp: FieldParams, n: int) -> tuple:
    """Packed keys of P+(2n,q), sorted ascending."""
    return tuple(matgf.pack_mat(fp, m) for m in parabolic_matrices(fp, n))


# -- packed-row multiplication kernel ---------------------------------------

def _coset_products(fp, left_factors, right):
    """Deduplicated packed keys of {x p : x in left_factors, p in right}.

    Row i of x p is the sum over k of x_ik times row k of p: p's packed row
    itself when x_ik = 1, else that row scaled lane by lane through
    mul_table row x_ik.
    """
    mt = field.mul_table(fp)
    r = fp.r
    rowbits = r * len(right[0])
    right_rows = [(p, tuple(matgf.pack_mat(fp, (row,)) for row in p)) for p in right]
    seen = set()
    add = seen.add
    for x in left_factors:
        if matgf.pack_mat(fp, x) in seen:
            continue
        recipe = [tuple((k, None if s == 1 else mt[s]) for k, s in enumerate(row) if s)
                  for row in x]
        for p, prows in right_rows:
            key = 0
            for terms in recipe:
                acc = 0
                for k, scale in terms:
                    if scale is None:
                        acc ^= prows[k]
                    else:
                        lanes = 0
                        for e in p[k]:
                            lanes = (lanes << r) | scale[e]
                        acc ^= lanes
                key = (key << rowbits) | acc
            add(key)
    return seen


@lru_cache(maxsize=None)
def bruhat_cell(fp: FieldParams, n: int, r: int) -> BruhatCell:
    """Materialize the double coset P+ s_r P+ by deduplicating products."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    _check_enum_budget(fp, n)
    pplus = parabolic_matrices(fp, n)
    perm = _sigma_perm(n, r)
    left = [_permute_cols(p, perm) for p in pplus]
    keys = _coset_products(fp, left, pplus)
    return BruhatCell(fp=fp, n=n, r=r, elements=tuple(sorted(keys)))


def a_r_subgroup(fp: FieldParams, n: int, r: int) -> tuple:
    """Packed keys of {w in P+ : s_r w s_r^-1 in P+} (s_r is an involution)."""
    perm = _sigma_perm(n, r)
    pplus = parabolic_matrices(fp, n)
    pkeys = frozenset(enumerate_parabolic(fp, n))
    out = []
    for m in pplus:
        # s_r m s_r permutes both the rows and the columns of m by perm
        conj = _permute_cols([m[i] for i in perm], perm)
        if matgf.pack_mat(fp, conj) in pkeys:
            out.append(matgf.pack_mat(fp, m))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def cell_traces(fp: FieldParams, n: int, r: int) -> tuple:
    """Tr w for the cell elements in canonical (packed-key) order."""
    n2 = 2 * n
    mask = fp.q - 1
    shifts = [fp.r * (n2 * n2 - 1 - i * (n2 + 1)) for i in range(n2)]
    out = []
    for key in bruhat_cell(fp, n, r).elements:
        tr = 0
        for sh in shifts:
            tr ^= (key >> sh) & mask
        out.append(tr)
    return tuple(out)


def cell_trace_histogram(fp: FieldParams, n: int, r: int) -> dict:
    """Counts of Tr(w) over the materialized cell, as {beta: count}."""
    return dict(Counter(cell_traces(fp, n, r)))


def group_order(n: int, q: int) -> int:
    """|O+(2n,q)| = 2 q^(n^2-n) (q^n - 1) prod_(j<n) (q^2j - 1)."""
    out = 2 * q ** (n * n - n) * (q ** n - 1)
    for j in range(1, n):
        out *= q ** (2 * j) - 1
    return out


def a_r_order(n: int, r: int, q: int) -> int:
    # q-exponent C(n,2) + r(2n-3r+1)/2 is an integer and >= 0 for 0 <= r <= n
    # (concave in r, zero at r = n), so this stays in exact ints
    exp2 = 2 * combinat.binom(n, 2) + r * (2 * n - 3 * r + 1)
    if exp2 % 2 or exp2 < 0:
        raise ConsistencyError("A_r exponent must be a nonnegative integer", n=n, r=r)
    return combinat.gl_order(r, q) * combinat.gl_order(n - r, q) * q ** (exp2 // 2)


def cell_order(n: int, r: int, q: int) -> int:
    return (q ** combinat.binom(n, 2) * combinat.gl_order(n, q)
            * combinat.q_binomial(n, r, q) * q ** combinat.binom(r, 2))


def group_counts(n: int, q: int) -> dict:
    """Closed-form order bookkeeping for O+(2n,q), with internal identities checked."""
    _check_witt_index(n)
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
    return (q ** combinat.binom(n, 2) * combinat.q_binomial(n, r, q)
            * q ** (r * (2 * n - r - 1) // 2) * combinat.nonsingular_symmetric_count(r, q))


def exp_sum_cell(fp: FieldParams, n: int, r: int, c: int = 1, mode: str = "formula") -> int:
    """Character sum of psi(Tr w) over the cell P+ s_r P+, psi = lambda(c .).

    Formula mode multiplies cell_sum_coefficient by the GL Kloosterman sum
    K_GL(n-r)(psi;1); brute mode sums over the materialized cell's trace
    histogram.
    """
    field.check_element(fp, c)
    if c == 0:
        raise ValueError("character scale c must be nonzero")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
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
    return sum(exp_sum_cell(fp, n, r, c, mode) for r in range(n + 1))
