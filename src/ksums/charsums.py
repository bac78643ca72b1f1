"""Character sums over GF(2^r).

m-dimensional Kloosterman sums and their power moments (the oracle side of
every moment identity in this package) and Kloosterman sums for GL(t,q) by
three independent routes. The classical identities relating them are rows
of verify, read straight from these tables.

The table of every K_m(lambda; a) (`kloosterman_values`, one per field and
m) is built level by level: in the log coordinates of field.exp_log each
level is a cyclic convolution of length q-1, taken as one big-int product by
Kronecker substitution, and no q x q product table is read. Every other
character is lambda(c .), and K_m(lambda(c .); a) = K_m(lambda; c^(m+1) a):
`kloosterman_value`, read by `ksum`, is the one place a scale c enters
them. A direct sum over (F_q^*)^m (`kloosterman`, lambda(c .) from
mul_table row c) is its oracle in the tests, and in verify's
values_table_vs_direct row of the m = 1 table only, at c = 1 and c = 2;
verify's carlitz row checks m = 2 against m = 1.

K_GL(t)(psi; a) has three routes: the recursion and the closed form,
which depend on a only through K(lambda;a), and brute force. Bulk readers
(verify's GL rows, orthogroup.cell_sums) read one table per (field, t) and
route (kloosterman_gl_table), which runs a formula route once per distinct
value of the m = 1 table and brute force once, over one histogram, for
every a; kloosterman_gl runs each route once, for one value. w -> w/c gives
K_GL(t)(lambda(c .); a) = K_GL(t)(lambda; c^2 a), so a scale c is the
reindex a -> c^2 a, as for the values tables.

The brute-force GL route counts a histogram of (Tr w, Tr w^-1) over
GL(t,q), at most q^2 entries, once per run, and each a of the run costs
one pass over it; the table is cached, so that is once per (field, t). The
histogram is matgf's one pass over all q^(t^2) t x t matrices, a slice at
a time, products by matgf.plane_dot: each matrix's determinant and the
trace of its adjugate come from its own entries by Laplace expansion
(matgf.minors), so invertibility and Tr w^-1 = Tr adj w / det w (Cramer's
rule) are decided with no K value read.
The closed form's inner sum over weakly decreasing tuples
j_1 >= ... >= j_(l-1) is taken level by level through suffix sums, O(t^2)
terms per l instead of one per tuple.

The oracle moments of a request come from one pass (power_moments) over
the values table, every h up to h_max at once; moment is entry h of one.

All sums are exact Python ints. Every public function checks its integer
parameters with field.check_int and its nonzero elements with
field.check_unit before any work. Enumerations carry hard budgets and raise
BudgetError instead of degrading. gl_routes is the one GL gate: it names the
routes that fit at (t, q), and kloosterman_gl and kloosterman_gl_table
refuse any other.
The big-int passes, the levels of a values table, power_moments and the GL
sums (a table once per distinct value), are charged their bits against
errors.TRANSFORM_BIT_BUDGET before they start.
"""

from collections import Counter
from functools import lru_cache, reduce
from itertools import product
from operator import or_, xor

from ksums import combinat, field, matgf
from ksums.errors import TRANSFORM_BIT_BUDGET, BudgetError, ConsistencyError, charge
from ksums.field import FieldParams

ENUM_BITS = 24
ENUM_BUDGET = 1 << ENUM_BITS  # max tuples of one direct sum
GL_BRUTE_BUDGET = 10 ** 6  # max |GL(t,q)| for brute force, and max F(t+1) for the closed form

GL_METHODS = ("recursion", "closed_form", "brute_force")
# log2 of the matrices per slice in _gl_trace_histogram. The GL(4,2)
# histogram took 1.8 ms with a tracemalloc peak of 33 KB at 2^12, 1.0 ms and
# 57 KB at 2^13, 0.5 ms and 107 KB at 2^14, and 0.2 ms and 396 KB as one
# slice of all 2^16 matrices (best of 7 warm runs, 2-CPU Xeon, CPython 3.11.7)
_SLICE_BITS = 13


def kloosterman(fp: FieldParams, a: int, m: int = 1, c: int = 1) -> int:
    """m-dimensional Kloosterman sum for psi = lambda(c .) at parameter a.

    Direct sum of psi(a1 + ... + am + a/(a1...am)) over (F_q^*)^m, read from
    mul_table (psi from row c): the oracle that kloosterman_value is checked against.
    """
    field.check_unit(fp, a, "a")
    field.check_unit(fp, c, "c")
    field.check_int("m", m, 1)
    if m * fp.r > ENUM_BITS:  # q^m > ENUM_BUDGET, without forming q^m
        raise BudgetError(f"q^m tuples at m = {m}, q = {fp.q} exceed "
                          f"enumeration budget {ENUM_BUDGET}")
    lam, invt, mt = field.char_table(fp), field.inv_table(fp), field.mul_table(fp)
    lamc = tuple(lam[cx] for cx in mt[c])
    us = field.units(fp)
    total = 0
    for head in product(us, repeat=m - 1):
        s = 0
        p = a
        for x in head:
            s ^= x
            p = mt[p][invt[x]]
        row = mt[p]
        for x in us:
            total += lamc[s ^ x ^ row[invt[x]]]
    return total


def _table_bits(m, r):
    """Bits the m levels of a values table write: 2q digits a level, each as wide as
    4 (q-1) (m+1) q^(m/2), since a folded digit sums q-1 shifted terms of at most
    4 (m+1) q^(m/2), four times the Weil bound on |K_m|."""
    return 2 * m * (1 << r) * (2 + r + (m + 1).bit_length() + (r * m + 1) // 2)


def _pack(values, width):
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _cyclic_convolution(psi, level):
    """out[i] = sum over j of psi[j] level[(i - j) mod n], psi in {+1, -1}, by one big-int product.

    Kronecker substitution: each sequence is packed as the digits of an int
    in base 256^width. The digits are shifted to be nonnegative, psi + 1 in
    {0, 2} and v + bound in [0, 2 bound] with bound = max |level|, so each
    of the n terms of a cyclic sum is at most 4 bound and a digit with
    256^width > 4 bound n never carries. Digits i and i + n of the linear
    product fold into digit i of low + high, the product mod 256^(width n) - 1.
    The shifts add bound sum(psi) + sum(level) + n bound to every output,
    which is taken off exactly.
    """
    n = len(psi)
    bound = max(map(abs, level))
    width = (4 * bound * n).bit_length() // 8 + 1
    prod = _pack([s + 1 for s in psi], width) * _pack([v + bound for v in level], width)
    span = 8 * width * n
    digits = ((prod & ((1 << span) - 1)) + (prod >> span)).to_bytes(width * n, "little")
    offset = bound * sum(psi) + sum(level) + n * bound
    return [int.from_bytes(digits[k:k + width], "little") - offset
            for k in range(0, width * n, width)]


@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 must not hit m = 1's table
def kloosterman_values(fp: FieldParams, m: int, /) -> tuple:
    """Tuple indexed by a with K_m(lambda; a) for a in F_q^*; slot 0 is None.

    Built level by level from K_m(a) = sum over x != 0 of lambda(x)
    K_(m-1)(a/x), with K_0 = lambda. In the log coordinates of field.exp_log,
    K_m(g^i) = sum over j of lambda(g^j) K_(m-1)(g^(i-j)), a cyclic
    convolution of length q-1, so each level is one big-int product
    (_cyclic_convolution). The levels are charged before the first one:
    _table_bits(m, r) bits against TRANSFORM_BIT_BUDGET, which admits m <= 218
    at r = 8. m is positional with no default, so a table is one cache key,
    built once (verify (6,3,10): 518 hits, 16 misses; `moments oracle`: 0 hits).
    """
    field.check_int("m", m, 1)
    charge(_table_bits(m, fp.r), "K_m values table at m = {}, q = {}: m big-int products "
           "of 2q digits as wide as the Weil bound", "lower m", m, fp.q)
    exp, _ = field.exp_log(fp)
    lam = field.char_table(fp)
    psi = [lam[x] for x in exp]  # lambda(g^j)
    level = psi
    for _ in range(m):
        level = _cyclic_convolution(psi, level)
    out = [None] * fp.q
    for x, v in zip(exp, level):
        out[x] = v
    return tuple(out)


def kloosterman_value(fp: FieldParams, a: int, m: int = 1, c: int = 1) -> int:
    """K_m(lambda(c .); a), the one place a scale c enters the values tables.

    x_i -> x_i/c turns lambda(c (x_1 + ... + x_m + a/(x_1...x_m))) into
    lambda(x_1 + ... + x_m + c^(m+1) a/(x_1...x_m)), so the sum is entry
    c^(m+1) a of kloosterman_values(fp, m), read through field.exp_log.
    """
    field.check_unit(fp, a, "a")
    field.check_unit(fp, c, "c")
    vals = kloosterman_values(fp, m)  # checks m
    exp, log = field.exp_log(fp)
    return vals[exp[((m + 1) * log[c] + log[a]) % (fp.q - 1)]]


def moment(fp: FieldParams, m: int, h: int) -> int:
    """Oracle power moment: sum of K_m(lambda;a)^h over a in F_q^*, entry h of power_moments."""
    field.check_int("h", h, 0)
    return power_moments(fp, m, h)[h]


def power_moments(fp: FieldParams, m: int, h_max: int, step: int = 1) -> list:
    """The oracle pass: sum of K_m(lambda;a)^(step h) over a in F_q^*, for h = 0..h_max.

    These are the moments at every lambda(c .) too, since c only permutes the
    a. The values of kloosterman_values repeat, so each distinct value is
    raised by one product per h. Charged before the table is built: h_max^2
    (h_max + m r) bits, the shape of the recursion's pass charge
    (moments._pless_sums) with m r in place of bitlen N. Every family's
    length has bitlen N >= m r for each kind it generates, so the oracle of
    a moment request whose pass fits fits too.
    """
    field.check_int("m", m, 1)
    field.check_int("h_max", h_max, 0)
    charge(h_max ** 2 * (h_max + m * fp.r),
           "oracle moments up to h = {} of K_{} over GF({})", "lower h_max", h_max, m, fp.q)
    out = [0] * (h_max + 1)
    for v, mult in Counter(kloosterman_values(fp, m)[1:]).items():
        power = v ** step
        for h in range(h_max + 1):
            out[h] += mult
            mult *= power
    return out


def _kloosterman_gl_recursion(fp, t, k1):
    q = fp.q
    prev, cur = 1, k1  # t = 0, 1
    if t == 0:
        return prev
    for s in range(2, t + 1):
        prev, cur = cur, q ** (s - 1) * cur * k1 + q ** (2 * s - 2) * (q ** (s - 1) - 1) * prev
    return cur


def _closed_form_tuples(t):
    """Inner tuples of the GL closed form: sum over l of C(t+1-l, l-1) = F(t+1).

    The suffix sums never enumerate them; the count only caps t (t <= 29).
    """
    prev, cur = 0, 1  # F(0), F(1)
    for _ in range(t):
        prev, cur = cur, prev + cur
    return cur


def _kloosterman_gl_closed_form(fp, t, k1):
    # sum over l of q^l K^(t+2-2l) times a sum over weakly decreasing integer
    # tuples j_1 >= ... >= j_(l-1) with 2l-1 <= j_(l-1) and j_1 <= t+1 of
    # prod (q^(j_nu - 2 nu) - 1); the inner sum is 1 when l = 1
    if t == 0:
        return 1
    q = fp.q
    total = 0
    for l in range(1, (t + 2) // 2 + 1):
        # level[i] after step nu sums the products over j_1 >= ... >= j_nu = lo + i;
        # level 0 is the empty tuple, set at the top so every j_1 sees it
        lo = 2 * l - 1
        level = [0] * (t + 1 - lo) + [1]
        for nu in range(1, l):
            suffix = 0  # sum over j' >= j of the previous level
            for i in range(t + 1 - lo, -1, -1):
                suffix += level[i]
                level[i] = (q ** (lo + i - 2 * nu) - 1) * suffix
        total += q ** l * k1 ** (t + 2 - 2 * l) * sum(level)
    e = (t - 2) * (t + 1) // 2  # the factor q^e; e < 0 only at t = 1, where it is 1/q
    if e >= 0:
        return q ** e * total
    value, rest = divmod(total, q ** -e)
    if rest:
        raise ConsistencyError("GL closed form must be an integer", t=t, q=q, k1=k1,
                               value=f"{total}/{q ** -e}")
    return value


def _split(mask, planes):
    """(v, the bits of mask where the planes read v) for each v met, planes given top bit first."""
    leaves = [(0, mask)]
    for plane in planes:
        split = []
        for value, part in leaves:
            hi = part & plane
            if lo := part ^ hi:
                split.append((value << 1, lo))
            if hi:
                split.append((value << 1 | 1, hi))
        leaves = split
    return leaves


def _gl_trace_histogram(fp, t):
    """Counts of (Tr w, Tr w^-1) over GL(t,q), at most q^2 entries, read by one brute-force run.

    One bit-sliced pass over every t x t matrix, 2^_SLICE_BITS matrices at
    a time (matgf.matrix_planes). det w and c = Tr adj w, the sum of the
    principal (t-1)-minors, come from one memo of minors (matgf.minors); w
    is invertible where det w != 0, and there Tr w^-1 = c det^(q-2) by
    Cramer's rule (matgf.plane_quotients). The mask of the invertible
    matrices is split by the planes of Tr w, then each part by those of
    Tr w^-1 (_split), so at most about 3q masks are held at once, and each
    leaf is counted by int.bit_count. Not cached: a brute-force run reads
    it for every a it needs.
    """
    r = fp.r
    width = min(r * t * t, _SLICE_BITS)
    one = [(1 << (1 << width)) - 1] + [0] * (r - 1)
    dot = matgf.plane_dot(fp)
    rows, cols = tuple(range(t)), (1 << t) - 1
    hist = Counter()
    for entry in matgf.matrix_planes(fp, t, width):
        minor = matgf.minors(dot, t, entry, one)
        det = minor(rows, cols)
        principal = [minor(rows[:i] + rows[i + 1:], cols ^ 1 << i) for i in rows]
        adj = [reduce(xor, planes) for planes in zip(*principal)]
        trinv, = matgf.plane_quotients(dot, [adj], det)
        trace = [reduce(xor, planes) for planes in zip(*entry[::t + 1])]
        for tr, mask in _split(reduce(or_, det), trace[::-1]):
            for trinv_value, leaf in _split(mask, trinv[::-1]):
                hist[tr, trinv_value] += leaf.bit_count()
    return tuple(hist.items())


def _kloosterman_gl_brute(fp, t, ats):
    """K_GL(t)(lambda; a) for each a in ats, all over one _gl_trace_histogram."""
    if t == 0:
        return [1] * len(ats)
    mt, lam = field.mul_table(fp), field.char_table(fp)
    hist = _gl_trace_histogram(fp, t)
    return [sum(count * lam[tr ^ row[trinv]] for (tr, trinv), count in hist)
            for row in map(mt.__getitem__, ats)]


def _gl_bits(t, q):
    # t steps of the recursion over values of about r t^2 bits
    return (q.bit_length() - 1) * t ** 3


def gl_routes(t: int, q: int) -> tuple:
    """The GL_METHODS whose work at (t, q) fits its budget.

    None once r t^3 bits are over TRANSFORM_BIT_BUDGET, the charge
    kloosterman_gl makes before any route runs; below it the recursion
    always fits.
    """
    if _gl_bits(t, q) > TRANSFORM_BIT_BUDGET:
        return ()
    fits = {
        "recursion": True,
        "closed_form": _closed_form_tuples(t) <= GL_BRUTE_BUDGET,
        "brute_force": combinat.gl_order(t, q) <= GL_BRUTE_BUDGET,
    }
    return tuple(method for method in GL_METHODS if fits[method])


def _admit_gl(fp, t, method):
    """Check t and method, charge one run of r t^3 bits, and gate the method by gl_routes."""
    field.check_int("t", t, 0)
    if method not in GL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    charge(_gl_bits(t, fp.q), "K_GL({0}) over GF({1}), {0} steps over values of about "
           "r t^2 bits", "lower t", t, fp.q)
    fits = gl_routes(t, fp.q)
    if method not in fits:
        raise BudgetError(f"K_GL({t}) over GF({fp.q}) by {method}: over budget "
                          f"{GL_BRUTE_BUDGET} on |GL(t,q)| for brute_force, F(t+1) for "
                          f"closed_form; routes that fit: {', '.join(fits)}")


def _gl_values(fp, t, method, ats):
    """K_GL(t)(lambda; a) for each a in ats by one admitted route.

    The recursion and the closed form run once per distinct K(lambda; a),
    brute force once over one histogram for every a.
    """
    if method == "brute_force":
        return _kloosterman_gl_brute(fp, t, ats)
    route = _kloosterman_gl_recursion if method == "recursion" else _kloosterman_gl_closed_form
    k1 = kloosterman_values(fp, 1)
    by_value = {v: route(fp, t, v) for v in dict.fromkeys(k1[a] for a in ats)}
    return [by_value[k1[a]] for a in ats]


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit t = 1's table
def kloosterman_gl_table(fp: FieldParams, t: int, method: str, /) -> tuple:
    """Tuple indexed by a with K_GL(t)(lambda; a) by one route; slot 0 is None.

    The recursion and the closed form depend on a only through K(lambda;a),
    so each runs once per distinct value of the m = 1 table; brute force
    counts one _gl_trace_histogram and reads it for every a. Admitted like
    one run of kloosterman_gl, then charged once before it is built: r t^3
    bits per distinct value. K_GL(t)(lambda(c .); a) is entry c^2 a.
    Cached, so the GL rows of verify and every c of orthogroup.cell_sums
    read one table per (field, t) (verify (6,3,10): 40 hits, 91 misses).
    """
    _admit_gl(fp, t, method)
    k1 = kloosterman_values(fp, 1)
    runs = len(set(k1[1:]))
    charge(_gl_bits(t, fp.q) * runs, "K_GL({0}) table over GF({1}), {2} runs of {0} "
           "steps over values of about r t^2 bits", "lower t", t, fp.q, runs)
    return (None,) + tuple(_gl_values(fp, t, method, field.units(fp)))


def kloosterman_gl(fp: FieldParams, t: int, a: int, method: str = "all", c: int = 1) -> int:
    """Kloosterman sum for GL(t,q): sum of psi(Tr w + a Tr w^-1) over GL(t,q), psi = lambda(c .).

    method selects the recursion, the closed form, or direct enumeration;
    "all" runs every route gl_routes names at this size and insists they
    agree. Any method is first charged r t^3 bits against
    TRANSFORM_BIT_BUDGET: the recursion takes t steps over values of about
    r t^2 bits. gl_routes is then the one gate: a named method it does not
    list at (t, q) raises BudgetError. w -> w/c turns psi(Tr w + a Tr w^-1)
    into lambda(Tr w + c^2 a Tr w^-1), so each route runs once, at c^2 a;
    kloosterman_gl_table runs them at every a.
    K_GL(0) = 1 by convention; t = 1 is the plain Kloosterman sum.
    """
    field.check_unit(fp, a, "a")
    field.check_unit(fp, c, "c")
    exp, log = field.exp_log(fp)
    at = exp[(2 * log[c] + log[a]) % (fp.q - 1)]
    _admit_gl(fp, t, "recursion" if method == "all" else method)  # the recursion always fits
    routes = gl_routes(t, fp.q) if method == "all" else (method,)
    got = {name: _gl_values(fp, t, name, [at])[0] for name in routes}
    if len(set(got.values())) != 1:
        raise ConsistencyError("kloosterman_gl methods disagree",
                               t=t, a=a, q=fp.q, **got)
    return got[routes[0]]
