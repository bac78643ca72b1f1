"""Square matrices over GF(2^r) as immutable tuples of row tuples.

Entries are field ints (see ksums.field). Matrices are hashable and compare
by value; the canonical serialization is the row-major concatenation of
fixed-width lowercase hex entries, and sorting by the packed-int key agrees
with sorting by that hex string.
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


def mat_inv(fp: FieldParams, m: Mat) -> Mat:
    """Inverse by Gauss-Jordan elimination; singular input raises."""
    n = len(m)
    mt = field.mul_table(fp)
    invt = field.inv_table(fp)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pinv = invt[aug[col][col]]
        if pinv != 1:
            scale = mt[pinv]
            aug[col] = [scale[v] for v in aug[col]]
        prow = aug[col]
        for i in range(n):
            f = aug[i][col]
            if i != col and f:
                scale = mt[f]
                aug[i] = [v ^ scale[p] for v, p in zip(aug[i], prow)]
    return tuple(tuple(row[n:]) for row in aug)


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


def entry_width(fp: FieldParams) -> int:
    return (fp.r + 3) // 4


def mat_hex(fp: FieldParams, m: Mat) -> str:
    w = entry_width(fp)
    return "".join(format(e, f"0{w}x") for row in m for e in row)


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


def all_matrices(fp: FieldParams, n: int):
    """Iterate every n x n matrix over the field, row-major lex order."""
    for flat in product(range(fp.q), repeat=n * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))


def gl_matrices(fp: FieldParams, n: int):
    """Yield (m, m_inverse) over all of GL(n, q)."""
    for m in all_matrices(fp, n):
        try:
            yield m, mat_inv(fp, m)
        except ZeroDivisionError:
            continue
