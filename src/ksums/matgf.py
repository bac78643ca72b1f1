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
coefficients of X^u, matrix i of N at bit N-1-i; a product is an AND/XOR
polynomial product of the planes and one linear reduction read from
mul_table. It decides O+ membership in ksums.orthogroup and makes every
product of the GL pass below. key_planes and plane_keys transpose keys
into planes and back.

GL(n,q) has one enumeration, a pass over the planes of every n x n
matrix. matrix_planes yields them a slice of consecutive keys at a time:
below the slice's width the planes of a key's bits are periodic patterns,
built once, and above it constants, so nothing is transposed. minors
expands determinants and cofactors over them, memoized, and
plane_quotients divides by a determinant where it is a unit: w is
invertible where det w != 0, and w^-1 is its cofactors over det w
(Cramer's rule). ksums.charsums' brute-force GL sums read the principal
minors, and ksums.orthogroup's Levi keys every cofactor.
"""

import sys
from functools import partial, reduce
from itertools import repeat
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


def key_planes(fp: FieldParams, n: int, keys) -> list:
    """[e][u]: bit u (X^u) of entry e, row-major, of every n x n key, as one int.

    Key i of N sits at bit N-1-i of each plane; keys must lie in
    [0, q^(n^2)). The keys are written as one binary string and each plane
    is read off it by one slice; an empty list of keys gives zero planes.
    """
    r = fp.r
    keybits = r * n * n
    text = "".join(map(format, keys, repeat(f"0{keybits}b")))
    planes = [int(text[p::keybits] or "0", 2) for p in range(keybits)]
    return [planes[e:e + r][::-1] for e in range(0, keybits, r)]


def plane_keys(fp: FieldParams, n: int, entry, count: int) -> list:
    """The count n x n keys whose entry planes are entry, in order: key_planes run backwards.

    Each plane is written as count binary digits into every keybits-th
    byte of one buffer by one slice, and key i is read off its own keybits
    digits. n >= 1.
    """
    if not count:  # format writes one digit even at width 0
        return []
    keybits = fp.r * n * n
    text = bytearray(count * keybits)
    for p, plane in enumerate(plane for planes in entry for plane in planes[::-1]):
        text[p::keybits] = format(plane, f"0{count}b").encode()
    return [int(text[i:i + keybits], 2) for i in range(0, len(text), keybits)]


def matrix_planes(fp: FieldParams, n: int, width: int):
    """Yield the entry planes [e][u] of every n x n matrix, 2^width matrices a slice.

    The matrices are the keys 0 .. q^(n^2) - 1 in ascending order, each
    slice 2^width consecutive keys, 0 <= width <= fp.r n^2, laid out as
    key_planes lays them out: key i of a slice at bit 2^width - 1 - i.
    Bit u of entry e is bit b = fp.r (n^2 - 1 - e) + u of the key. For
    b < width, the plane of bit b sets the low 2^b bits of every run of
    2^(b+1), a periodic pattern built once for every slice: from all ones
    down, each plane is the one above xor itself shifted up by 2^b. Above
    width, bit b is constant across a slice.
    """
    r, cells = fp.r, n * n
    ones = (1 << (1 << width)) - 1
    periodic, plane = [], ones
    for b in range(width - 1, -1, -1):
        plane = (plane ^ plane << (1 << b)) & ones
        periodic.insert(0, plane)
    for high in range(1 << r * cells - width):
        bits = periodic + [-(high >> b & 1) & ones for b in range(r * cells - width)]
        yield [bits[r * (cells - 1 - e):r * (cells - e)] for e in range(cells)]


def minors(dot, n: int, entry, one):
    """Return minor(rows, cols), the planes of the determinant of the submatrix of the
    n x n entry planes on rows (a tuple) and the columns in bitmask cols.

    dot is plane_dot's product and one the planes of 1, the empty minor.
    Laplace expansion along the first row, with no signs in characteristic
    2, each minor of two or more rows taken once through a memo keyed by
    (rows, cols). minor is a partial of a module function, not a closure
    that calls itself, so a memo is freed with its minor and not left to
    the cycle collector.
    """
    return partial(_minor, dot, n, entry, {((), 0): one})


def _minor(dot, n, entry, memo, rows, cols):
    if len(rows) == 1:
        return entry[rows[0] * n + cols.bit_length() - 1]
    if (rows, cols) not in memo:
        row, rest = rows[0] * n, rows[1:]
        memo[rows, cols] = dot([(entry[row + c], _minor(dot, n, entry, memo, rest, cols ^ 1 << c))
                                for c in range(n) if cols >> c & 1])
    return memo[rows, cols]


def plane_quotients(dot, ys, x) -> list:
    """The planes of y x^(q-2), that is y / x wherever x != 0, for each y in ys.

    x^(q-2) is the product of x^(2^k), 1 <= k < r, r = len(x): r - 1
    squarings and r - 2 products by dot. At q = 2 it is 1, and ys come
    back as they are.
    """
    square, inverse = x, None
    for _ in range(len(x) - 1):
        square = dot([(square, square)])
        inverse = square if inverse is None else dot([(inverse, square)])
    return ys if inverse is None else [dot([(y, inverse)]) for y in ys]
