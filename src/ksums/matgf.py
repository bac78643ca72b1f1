"""Square matrices over GF(2^r) as packed-int keys.

Entries are field ints (see ksums.field). A matrix is exchanged as one key:
row-major and big-endian, fp.r bits per entry, so a row of n entries is an
n-lane int and lex order of the rows is int order of the key. The
canonical serialization (keys_hex) is the row-major concatenation of
fixed-width lowercase hex entries, read straight from the key, and sorting
by the key agrees with sorting by the hex string.
key_traces reads Tr of each key from its diagonal lanes.

GL(n,q) is enumerated by gl_matrices, a depth-first search over rows that
keeps one Gauss-Jordan state per prefix of rows, all of it on packed rows:
singular matrices are never built, and each key arrives with the key of its
inverse. A row scaled by a field element is one lookup in a table of scaled
rows, so a reduction step is two lookups and two xors. With scalar_classes
the same search yields one matrix of each class {u m : u != 0},
|GL(n,q)|/(q-1) of them.
"""

from itertools import repeat, tee
from operator import and_, rshift, xor

from ksums import field
from ksums.field import FieldParams


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


def key_traces(fp: FieldParams, n: int, keys):
    """Tr of each packed n x n key, lazily and in order; keys may be a stream.

    Tr m is the xor of the n diagonal lanes, one pass over the keys per
    lane. Over GF(2) it is the parity of the diagonal bits instead, one
    int.bit_count per key and a single pass; that form is kept because it
    is the faster one there (about 5x on the q = 2 cells), and it also
    serves n = 0, whose empty diagonal has parity 0 in any field.
    """
    shifts = [fp.r * (n * n - 1 - i * (n + 1)) for i in range(n)]
    if fp.r == 1 or n == 0:
        diag = sum(1 << s for s in shifts)
        return map(and_, map(int.bit_count, map(and_, keys, repeat(diag))), repeat(1))
    out = repeat(0)
    for s, stream in zip(shifts, tee(keys, n)):
        out = map(xor, out, map(and_, map(rshift, stream, repeat(s)), repeat(fp.q - 1)))
    return out


def _lane_scales(fp: FieldParams, n: int):
    """S[s][v]: the n-lane row v with every lane times s, q^(n+1) entries.

    At n = 1 this is field.mul_table itself; each further lane appends
    mul_table's row s to every entry of the table so far.
    """
    mt = field.mul_table(fp)
    if n == 1:
        return mt
    r = fp.r
    out = []
    for row in mt:
        lanes = row
        for _ in range(n - 1):
            lanes = [(hi << r) | lo for hi in lanes for lo in row]
        out.append(lanes)
    return out


def gl_matrices(fp: FieldParams, n: int, scalar_classes: bool = False):
    """Yield (key, inverse_key) over all of GL(n, q), keys strictly increasing.

    Keys are in the packed layout above. A depth-first search over rows, each
    level trying the rows 1 .. q^n - 1 in increasing order, so keys arrive
    in row-major lex order. The rows chosen so far carry one Gauss-Jordan
    state, shared by every matrix that starts with them: per chosen row the
    pivot lane's shift p, a reduced echelon row e (lane p_j of e_i is 1 if
    i = j else 0) and a transform row t, e_i = sum_j t_i[j] row_j. A
    candidate v is reduced against that state: its own lane at p is the
    coefficient f of e, so res ^= S[f][e] and tr ^= S[f][t], with S the
    _lane_scales table. A zero residual means v lies in the span of the
    earlier rows, so it is skipped and no singular matrix is ever built;
    otherwise the top lane of res pivots. Once all n rows are chosen every
    e_i is the unit vector at p_i, so the row of m^-1 indexed by p_i's
    column is t_i: the last level places its transform rows straight into
    the inverse key and keeps no state. One generator frame walks the
    levels with an explicit stack. S has q^(n+1) entries, so callers bound
    n and q.

    With scalar_classes, the first level tries only rows whose top nonzero
    lane is 1. Scalars act freely on GL(n,q) and scale the first row's lead,
    so exactly one m of each class {u m : u != 0} is yielded.
    """
    if n == 0:
        yield 0, 0
        return
    r, mask = fp.r, fp.q - 1
    rowbits = r * n
    scale = _lane_scales(fp, n)
    invt = field.inv_table(fp)
    rows = range(1, fp.q ** n)
    if scalar_classes:  # the top nonzero lane of v is v >> p, p its shift
        first = [v for v in rows if v >> (v.bit_length() - 1) // r * r == 1]
    else:
        first = rows
    stack = [(iter(first), [], 0)]  # per level: candidates left, state, key of the prefix
    while stack:
        cands, state, prefix = stack[-1]
        k = len(stack) - 1
        unit = 1 << r * (n - 1 - k)  # row k itself, as a transform row
        for v in cands:
            res, tr = v, unit
            for p, e, t in state:
                # the other e_j vanish at p, so v's own lane is the coefficient
                f = (v >> p) & mask
                if f:
                    sf = scale[f]
                    res ^= sf[e]
                    tr ^= sf[t]
            if not res:
                continue
            p = (res.bit_length() - 1) // r * r  # the top nonzero lane pivots
            norm = scale[invt[res >> p]]
            tr = norm[tr]
            key = (prefix << rowbits) | v
            if k == n - 1:
                # t_j is the inverse's row for the column at lane shift p_j, n p_j bits up
                inv = tr << n * p
                for pj, e, t in state:
                    inv |= (t ^ scale[(e >> p) & mask][tr]) << n * pj
                yield key, inv
                continue
            res = norm[res]
            new = []
            for pj, e, t in state:
                sg = scale[(e >> p) & mask]
                new.append((pj, e ^ sg[res], t ^ sg[tr]))
            new.append((p, res, tr))
            stack.append((iter(rows), new, key))
            break
        else:
            stack.pop()
