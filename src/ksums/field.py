"""Exact GF(2^r) arithmetic in a fixed polynomial basis, 1 <= r <= 8.

Field elements are plain ints in [0, 2^r): bit k holds the coefficient of
x^k, so 0 and 1 are the additive and multiplicative identities and addition
is xor. A `FieldParams` value pins the basis via its irreducible modulus;
the same int means the same element only under the same modulus.

The default modulus per degree is a fixed low-weight irreducible (see
DEFAULT_MODULI), so serialized tables are bit-exact reproducible. Elements
serialize as lowercase hex of their int value.

The degree cap exists because everything downstream enumerates F_q or F_q^*
exhaustively; a too-large r is rejected loudly, never truncated.

Every product comes from one kernel, `exp_log`: the pair g^i and log_g x of
a primitive element g, walked by shift-and-add, the one place that reduces
by the modulus. `trace_table`, `inv_table` (and so `char_table`), `power`,
`mul_table` (row g^i is exp rotated by i, read at log y), and in charsums
the Kloosterman tables, cyclic convolutions in log coordinates, and their
reindex a -> c^(m+1) a at a scaled character are read from it. The
enumeration layers (GL(n,q), the cells, the codes) and `mul` read
`mul_table`, which the tests check against carryless products, exp/log's
independent oracle. The public functions here validate their operands
(ints, not bools, in range); inner loops elsewhere read `mul_table`,
`inv_table` and `trace_table` rows directly and rely on their own entry
points having validated the inputs with `check_int` (an int, not a bool,
within bounds) and `check_unit` (a nonzero element), the package's one
parameter rule.
"""

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from ksums.errors import ConsistencyError

MAX_DEGREE = 8

# x, x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, x^6+x+1, x^7+x+1, x^8+x^4+x^3+x+1
DEFAULT_MODULI = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


class FieldParams(NamedTuple):
    r: int
    q: int
    modulus: int

    def __repr__(self):
        return f"FieldParams(r={self.r}, modulus={self.modulus:#x})"


def _poly_mod2(a: int, b: int) -> int:
    """Remainder of GF(2)[x] division of a by b (bitmask polynomials)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _is_irreducible(p: int, r: int) -> bool:
    # exhaustive factor scan: p of degree r is reducible iff some divisor of
    # degree 1..r//2 divides it
    for d in range(1, r // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _poly_mod2(p, g) == 0:
                return False
    return True


def _is_int(v) -> bool:
    # bool is an int subclass, but True is not a degree or a field element
    return isinstance(v, int) and not isinstance(v, bool)


def binary_field(r: int, modulus: int | None = None) -> FieldParams:
    """Construct FieldParams for GF(2^r), verifying the modulus.

    Raises ValueError for r outside 1..8, a non-int r or modulus, or a
    negative, non-irreducible or wrong-degree modulus.
    """
    if not _is_int(r) or not 1 <= r <= MAX_DEGREE:
        raise ValueError(f"r out of supported range 1..{MAX_DEGREE}: {r!r}")
    if modulus is None:
        modulus = DEFAULT_MODULI[r]
    if not _is_int(modulus):
        raise ValueError(f"modulus must be an int, got {modulus!r}")
    if modulus < 0 or modulus.bit_length() - 1 != r:
        raise ValueError(f"modulus {modulus:#x} does not have degree {r}")
    if not _is_irreducible(modulus, r):
        raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
    return FieldParams(r=r, q=1 << r, modulus=modulus)


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """Validate an integer parameter: an int, not a bool, with lo <= value <= hi."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")
    return value


def check_element(fp: FieldParams, x: int) -> int:
    """Validate that x encodes an element of fp's field."""
    if not _is_int(x) or not 0 <= x < fp.q:
        raise ValueError(f"{x!r} is not an element of GF(2^{fp.r})")
    return x


def check_unit(fp: FieldParams, x: int, name: str) -> int:
    """Validate that x encodes a nonzero element of fp's field."""
    if check_element(fp, x) == 0:
        raise ValueError(f"needs {name} != 0")
    return x


def elements(fp: FieldParams) -> range:
    return range(fp.q)


def units(fp: FieldParams) -> range:
    return range(1, fp.q)


def mul(fp: FieldParams, x: int, y: int) -> int:
    """x * y, read from mul_table."""
    check_element(fp, x)
    check_element(fp, y)
    return mul_table(fp)[x][y]


def power(fp: FieldParams, x: int, e: int) -> int:
    """x^e = g^(e log x), read from exp_log; negative e allowed for x != 0."""
    check_element(fp, x)
    if not _is_int(e):
        raise ValueError(f"e must be an int, got {e!r}")
    if x == 0:
        if e < 0:
            raise ZeroDivisionError("0 has no negative powers")
        return 1 if e == 0 else 0
    exp, log = exp_log(fp)
    return exp[log[x] * e % (fp.q - 1)]


def inv(fp: FieldParams, x: int) -> int:
    """Multiplicative inverse; inverting 0 is a domain error."""
    check_element(fp, x)
    if x == 0:
        raise ZeroDivisionError(f"0 is not invertible in GF(2^{fp.r})")
    return inv_table(fp)[x]


def trace(fp: FieldParams, x: int) -> int:
    """Absolute trace x + x^2 + ... + x^(2^(r-1)), a bit in {0, 1}."""
    check_element(fp, x)
    return trace_table(fp)[x]


def additive_char(fp: FieldParams, x: int) -> int:
    """Canonical additive character (-1)^trace(x), valued in {+1, -1}."""
    return 1 - 2 * trace(fp, x)


def artin_schreier_image(fp: FieldParams) -> frozenset:
    """Image of x -> x^2 + x; an index-2 subgroup of (F_q, +)."""
    mt = mul_table(fp)
    return frozenset(mt[a][a] ^ a for a in elements(fp))


@lru_cache(maxsize=None)
def exp_log(fp: FieldParams) -> tuple:
    """(exp, log) of a primitive element g: exp[i] = g^i for 0 <= i < q-1, log[g^i] = i.

    log[0] is None. g is the least element whose powers return to 1 only
    after q-1 steps; each step multiplies by g by shift-and-add (v x is a
    shift reduced by the modulus, and g is a sum of powers of x), so no
    product table is read. x itself need not be primitive: under the default
    modulus 0x11b at r = 8 it has order 51, and g = x+1. Cached: every table
    reads it (verify (6,3,10): 3,816 hits, 10 misses; `moments oracle --r 8
    --m 2 --c 3`: 1 hit, 1 miss).
    """
    q, modulus, top = fp.q, fp.modulus, fp.q >> 1
    for g in range(1, q):
        exp, v = [], 1
        while True:
            exp.append(v)
            acc, bits = 0, g
            while bits:
                if bits & 1:
                    acc ^= v
                v = (v << 1) ^ modulus if v & top else v << 1
                bits >>= 1
            v = acc
            if v == 1:
                break
        if len(exp) == q - 1:
            break
    else:
        raise ConsistencyError("the units of a field are cyclic", field=fp)
    log = [None] * q
    for i, x in enumerate(exp):
        log[x] = i
    return tuple(exp), tuple(log)


@lru_cache(maxsize=None)
def trace_table(fp: FieldParams) -> tuple:
    """trace over all of F_q; cached, read per dual kernel and theta b (verify (6,3,10): 140 hits).

    The trace is F_2-linear, so the table is spanned from the traces of the
    basis x^k, each a sum of r squarings read through exp_log: the entries
    for bit k set are those below 2^k xor tr(x^k).
    """
    exp, log = exp_log(fp)
    out = (0,)
    for k in range(fp.r):
        i, acc = log[1 << k], 0
        for _ in range(fp.r):
            acc ^= exp[i]
            i = 2 * i % (fp.q - 1)
        if acc not in (0, 1):
            raise ConsistencyError("trace must land in F_2", field=fp, x=1 << k, trace=acc)
        out += tuple(t ^ acc for t in out)
    return out


@lru_cache(maxsize=None)
def char_table(fp: FieldParams) -> tuple:
    """additive_char over all of F_q; cached, read per sum (verify (6,3,10): 1,582 hits)."""
    return tuple(1 - 2 * t for t in trace_table(fp))


@lru_cache(maxsize=None)
def mul_table(fp: FieldParams) -> tuple:
    """Full q x q multiplication table, mul_table(fp)[x][y] = x * y.

    The enumeration layers' products; at most 64K entries at r = 8. Read
    from exp_log: row g^i is exp rotated by i, read at 1 + log y by one
    itemgetter, with slot 0 of the rotation holding 0 * g^i (so the getter
    has q >= 2 indices and returns a tuple even at q = 2). Each row is one
    C-level call. Cached for every product (verify (6,3,10): 1,619 hits).
    """
    exp, log = exp_log(fp)
    get = itemgetter(0, *(1 + i for i in log[1:]))
    return ((0,) * fp.q,) + tuple(get((0,) + exp[i:] + exp[:i]) for i in log[1:])


@lru_cache(maxsize=None)
def inv_table(fp: FieldParams) -> tuple:
    """inv_table(fp)[x] = 1/x, slot 0 holding 0; cached (verify (6,3,10): 938 hits).

    1/g^i = g^-i, read from exp_log.
    """
    exp, _ = exp_log(fp)
    out = [0] * fp.q
    for i, x in enumerate(exp):
        out[x] = exp[-i]
    return tuple(out)


def element_hex(fp: FieldParams, x: int) -> str:
    """Lowercase hex of x, the one serialization of field elements (the CLI's too)."""
    check_element(fp, x)
    return format(x, "x")


def parse_element(fp: FieldParams, text: str) -> int:
    try:
        x = int(text, 16)
    except ValueError:
        raise ValueError(f"not a hex field element: {text!r}") from None
    return check_element(fp, x)
