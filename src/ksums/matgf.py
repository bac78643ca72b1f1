"""Square matrices over GF(2^r) as packed-int keys, and their entries as bit planes.

Entries are field ints (see ksums.field). A matrix is exchanged as one key:
row-major and big-endian, fp.r bits per entry, so a row of n entries is an
n-lane int and lex order of the rows is int order of the key. The
canonical serialization (keys_hex) is the row-major concatenation of
fixed-width lowercase hex entries, read straight from the key, and sorting
by the key agrees with sorting by the hex string.
key_traces is the package's one trace reader: Tr of every key from its
diagonal lanes, bit-sliced over 1,024 keys at a time read as one int of
64-bit words. It reads a Bruhat cell's buffer for ksums.orthogroup's trace
histogram.

plane_dot is the package's one bit-sliced product. A field element held
for N matrices at once is fp.r bit planes, plane u an N-bit int of the
coefficients of X^u; a product is an AND/XOR polynomial product of the
planes and one linear reduction read from mul_table. It decides O+
membership in ksums.orthogroup and the determinants and inverse traces of
ksums.charsums' brute-force GL sums.

GL(n,q) is enumerated by gl_matrices, a depth-first search over rows that
keeps one Gauss-Jordan state per prefix of rows, all of it on packed rows:
singular matrices are never built, and each key arrives with the key of its
inverse. A row scaled by a field element is one lookup in a table of scaled
rows, lane_scales, so a reduction step is two lookups and two xors.
"""

import sys
from functools import reduce
from operator import xor

from ksums import field
from ksums.field import FieldParams

_CHUNK = 1024  # keys per int in key_traces; see there


def keys_hex(fp: FieldParams, n: int, keys):
    """Canonical hex of each packed n x n key, lazily and in order; keys may be a stream.

    Each key is read c = max(1, 12 // r) entries at a time.
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
    return ("".join([table[(key >> s) & mask] for s in shifts])[pad:] for key in keys)


def key_traces(fp: FieldParams, n: int, keys) -> bytes:
    """Tr of each packed n x n key, in order, one byte per key.

    keys is a sequence of keys below 2^64: a 'Q' memoryview such as
    BruhatCell.elements, or a list or tuple of ints, whose slices are packed
    through array('Q') (a key out of range raises OverflowError there). It
    is read _CHUNK keys at a time as one int of native 64-bit words, so
    each operation below acts on every key of the chunk at once. The xor of
    the n diagonal lanes, each shifted to bit 0 of its word, leaves Tr in
    the low fp.r bits of every word (the bits above are debris, and
    fp.r <= 8); the low byte of each word is gathered, and one
    bytes.translate masks every byte to fp.r bits. Chunks keep the shifted
    copies small: made of a whole O+(6,2) cell at once, they raised the
    peak RSS of a request that builds that one cell by about 1 MB.
    """
    shifts = [fp.r * (n * n - 1 - i * (n + 1)) for i in range(n)]
    low = 0 if sys.byteorder == "little" else 7  # offset of a native word's bits 0..7
    out = []
    for start in range(0, len(keys), _CHUNK):
        part = keys[start:start + _CHUNK]
        if not isinstance(part, memoryview):
            from array import array  # an extension module, imported only to pack keys
            part = array("Q", part)
        words = int.from_bytes(part, sys.byteorder)
        traces = reduce(xor, [words >> s for s in shifts], 0)
        out.append(traces.to_bytes(8 * len(part), sys.byteorder)[low::8])
    return b"".join(out).translate(bytes(range(fp.q)) * (256 >> fp.r))  # b -> b mod q


def plane_dot(fp: FieldParams):
    """Return dot(pairs): the fp.r bit planes of the sum of a b over (a, b) in pairs.

    Each a and b is a field element as fp.r planes, ints whose bit i belongs
    to matrix i of a batch, so each operation acts on the whole batch. The
    products are summed unreduced, as the coefficients of a polynomial in X
    of degree at most 2 fp.r - 2, by XOR-ing a_u & b_v into the coefficient
    of X^(u+v); one linear reduction then maps X^s to its field element,
    read from mul_table as X^u X^v, so exp_log stays the only code that
    reduces by the modulus.
    """
    r = fp.r
    mt = field.mul_table(fp)
    # the planes that a coefficient of X^s lands in, s <= 2 fp.r - 2
    lands = [[t for t in range(r) if mt[1 << min(s, r - 1)][1 << max(s - r + 1, 0)] >> t & 1]
             for s in range(2 * r - 1)]

    def dot(pairs):
        coeffs = [0] * (2 * r - 1)
        for a, b in pairs:
            for u, au in enumerate(a):
                if au:
                    for v, bv in enumerate(b, u):
                        coeffs[v] ^= au & bv
        reduced = [0] * r
        for c, ts in zip(coeffs, lands):
            if c:
                for t in ts:
                    reduced[t] ^= c
        return reduced

    return dot


def lane_scales(fp: FieldParams, n: int):
    """S[s][v]: the n-lane row v with every lane times s, q^(n+1) entries.

    Read by gl_matrices.

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


def gl_matrices(fp: FieldParams, n: int):
    """Yield (key, inverse_key) over all of GL(n, q), keys strictly increasing.

    Keys are in the packed layout above. A depth-first search over rows, each
    level trying the rows 1 .. q^n - 1 in increasing order, so keys arrive
    in row-major lex order. The rows chosen so far carry one Gauss-Jordan
    state, shared by every matrix that starts with them: per chosen row the
    pivot lane's shift p, a reduced echelon row e (lane p_j of e_i is 1 if
    i = j else 0) and a transform row t, e_i = sum_j t_i[j] row_j. A
    candidate v is reduced against that state: its own lane at p is the
    coefficient f of e, so res ^= S[f][e] and tr ^= S[f][t], with S the
    lane_scales table. A zero residual means v lies in the span of the
    earlier rows, so it is skipped and no singular matrix is ever built;
    otherwise the top lane of res pivots. Once all n rows are chosen every
    e_i is the unit vector at p_i, so the row of m^-1 indexed by p_i's
    column is t_i: the last level places its transform rows straight into
    the inverse key and keeps no state. One generator frame walks the
    levels with an explicit stack. S has q^(n+1) entries, so callers bound
    n and q.
    """
    if n == 0:
        yield 0, 0
        return
    r, mask = fp.r, fp.q - 1
    rowbits = r * n
    scale = lane_scales(fp, n)
    invt = field.inv_table(fp)
    rows = range(1, fp.q ** n)
    stack = [(iter(rows), [], 0)]  # per level: candidates left, state, key of the prefix
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
