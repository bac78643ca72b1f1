"""Square matrices over GF(2^r) as immutable tuples of row tuples.

Entries are field ints (see ksums.field). Matrices are hashable and compare
by value; the canonical serialization (keys_hex) is the row-major
concatenation of fixed-width lowercase hex entries, read straight from the
packed-int key, and sorting by that key agrees with sorting by the hex string.

GL(n,q) is enumerated by gl_matrices, a depth-first search over rows that
keeps one Gauss-Jordan state per prefix of rows: singular matrices are never
built, and each element arrives with its inverse. With scalar_classes the
same search yields one matrix of each class {u m : u != 0}, |GL(n,q)|/(q-1)
of them.
"""

from itertools import product

from ksums import field
from ksums.field import FieldParams

Mat = tuple


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x ^ y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def mat_is_alternating(m: Mat) -> bool:
    """Symmetric with zero diagonal (the characteristic-2 convention)."""
    n = len(m)
    for i in range(n):
        if m[i][i]:
            return False
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                return False
    return True


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


def keys_hex(fp: FieldParams, n: int, keys) -> list:
    """Canonical hex of each packed n x n key, c = max(1, 12 // r) entries at a time.

    A q^c-entry table (at most 4096) holds the hex of every run of c entries;
    the top run is padded with zero entries, whose digits are stripped.
    """
    r = fp.r
    c = max(1, 12 // r)
    digits = [format(e, f"0{(r + 3) // 4}x") for e in range(fp.q)]
    table = digits
    for _ in range(c - 1):
        table = [a + b for a in table for b in digits]
    runs = -(-n * n // c)
    pad = (runs * c - n * n) * len(digits[0])
    mask = (1 << r * c) - 1
    shifts = range(r * c * (runs - 1), -1, -r * c)
    return ["".join([table[(key >> s) & mask] for s in shifts])[pad:] for key in keys]


def gl_matrices(fp: FieldParams, n: int, scalar_classes: bool = False):
    """Yield (m, m_inverse) over all of GL(n, q), in row-major lex order of m.

    A depth-first search over rows, each level trying the q^n rows in lex
    order. The rows chosen so far carry one Gauss-Jordan state, shared by
    every matrix that starts with them: echelon rows e_i in reduced form
    (e_i[p_j] = 1 if i = j else 0) with pivots p_i, and transform rows t_i,
    e_i = sum_j t_i[j] row_j. A candidate row is reduced against that state;
    a zero residual means it lies in the span of the earlier rows, so it is
    skipped and no singular matrix is ever built. Once all n rows are
    chosen every e_i is the unit vector at p_i, so row p_i of m^-1 is t_i.

    With scalar_classes, the first level tries only rows whose first nonzero
    entry is 1. Scalars act freely on GL(n,q) and scale the first row's lead,
    so exactly one m of each class {u m : u != 0} is yielded.
    """
    if n == 0:
        yield (), ()
        return
    mt = field.mul_table(fp)
    invt = field.inv_table(fp)
    rows = list(product(range(fp.q), repeat=n))
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    first = [v for v in rows if next(filter(None, v), 0) == 1] if scalar_classes else rows

    def extend(chosen, echelon, transform, pivots):
        k = len(chosen)
        for v in rows if k else first:
            res, tr = v, units[k]
            for p, e, t in zip(pivots, echelon, transform):
                f = v[p]  # the other e_j vanish at p, so v's own entry is the coefficient
                if f:
                    scale = mt[f]
                    res = [x ^ scale[y] for x, y in zip(res, e)]
                    tr = [x ^ scale[y] for x, y in zip(tr, t)]
            lead = next(filter(None, res), 0)  # the first nonzero entry pivots
            if not lead:
                continue
            col = res.index(lead)
            scale = mt[invt[lead]]
            tr = [scale[x] for x in tr]
            new_t = [[x ^ mt[e[col]][y] for x, y in zip(t, tr)] if e[col] else t
                     for e, t in zip(echelon, transform)]
            new_t.append(tr)
            new_p = pivots + (col,)
            if k == n - 1:
                inv = [None] * n
                for p, t in zip(new_p, new_t):
                    inv[p] = tuple(t)
                yield chosen + (v,), tuple(inv)
                continue
            res = [scale[x] for x in res]
            new_e = [[x ^ mt[e[col]][y] for x, y in zip(e, res)] if e[col] else e
                     for e in echelon]
            new_e.append(res)
            yield from extend(chosen + (v,), new_e, new_t, new_p)

    yield from extend((), [], [], ())
