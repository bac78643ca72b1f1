"""Character sums over GF(2^r).

m-dimensional Kloosterman sums and their power moments (the oracle side of
every moment identity in this package), Kloosterman sums for GL(t,q) by
three independent routes, and verification helpers for the classical
identities relating them.

The table of every K_m(lambda; a) (`kloosterman_values`, one per field and
m) is built level by level: in the log coordinates of field.exp_log each
level is a cyclic convolution of length q-1, taken as one big-int product by
Kronecker substitution, and no q x q product table is read. Every other
character is lambda(c .), and K_m(lambda(c .); a) = K_m(lambda; c^(m+1) a):
`kloosterman_value`, read by `ksum` and the GL sums, is the one place a
scale c enters. A direct sum over (F_q^*)^m (`kloosterman`, lambda(c .) from
mul_table row c) is its oracle in the tests, and in verify's
values_table_vs_direct row of the m = 1 table only, at c = 1 and c = 2;
Carlitz's identity checks m = 2 against m = 1.

The brute-force GL route reads a cached histogram of (Tr w, Tr w^-1) over
GL(t,q), at most q^2 entries, counted once per (q, t); each (a, c) then
costs one pass over it. A unit u sends w to u w and the pair to
(u Tr w, u^-1 Tr w^-1), and scalars act freely on GL(t,q), so the histogram
reads the traces of the packed key pairs that matgf.gl_matrices streams with
scalar_classes, one matrix of each class and |GL(t,q)|/(q-1) in all, and
spreads each count over the q-1 scaled pairs. The closed form's inner sum
over weakly decreasing tuples j_1 >= ... >= j_(l-1) is taken level by level
through suffix sums, O(t^2) terms per l instead of one per tuple.

The oracle moments of a request come from one pass (power_moments) over
the values table, every h up to h_max at once; moment is entry h of one.

All sums are exact Python ints. Every public function checks its integer
parameters with field.check_int and its nonzero elements with
field.check_unit before any work. Enumerations carry hard budgets and raise
BudgetError instead of degrading. gl_routes is the one GL gate: it names the
routes that fit at (t, q), and kloosterman_gl refuses any other.
The big-int passes, the levels of a values table, power_moments and the GL
sums, are charged their bits against errors.TRANSFORM_BIT_BUDGET before
they start.
"""

from collections import Counter
from functools import lru_cache
from itertools import product, tee
from operator import itemgetter

from ksums import combinat, field, matgf
from ksums.errors import TRANSFORM_BIT_BUDGET, BudgetError, ConsistencyError, charge
from ksums.field import FieldParams

ENUM_BITS = 24
ENUM_BUDGET = 1 << ENUM_BITS  # max tuples of one direct sum
GL_BRUTE_BUDGET = 10 ** 6  # max |GL(t,q)| for brute force, and max F(t+1) for the closed form

GL_METHODS = ("recursion", "closed_form", "brute_force")


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
    built once (verify (6,3,10): 4,628 hits, 16 misses; `moments oracle`: 0 hits).
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


@lru_cache(maxsize=None)
def _gl_trace_histogram(fp, t):
    """Counts of (Tr w, Tr w^-1) over GL(t,q), at most q^2 entries; every a and c reads it.

    One matrix per scalar class is enumerated; u w for the q-1 units u
    carries (Tr w, Tr w^-1) to (u Tr w, u^-1 Tr w^-1). The traces are read
    from the packed keys as the search yields them, in lockstep, so no list
    of the |GL(t,q)|/(q-1) keys is ever held. Cached (verify (6,3,10): 136 hits).
    """
    mats, invs = tee(matgf.gl_matrices(fp, t, scalar_classes=True))
    classes = Counter(zip(matgf.key_traces(fp, t, map(itemgetter(0), mats)),
                          matgf.key_traces(fp, t, map(itemgetter(1), invs))))
    mt, invt = field.mul_table(fp), field.inv_table(fp)
    hist = Counter()
    for (tr, trinv), count in classes.items():
        for u in field.units(fp):
            hist[mt[u][tr], mt[invt[u]][trinv]] += count
    return tuple(hist.items())


def _kloosterman_gl_brute(fp, t, a, c):
    if t == 0:
        return 1
    mt, lam = field.mul_table(fp), field.char_table(fp)
    row, crow = mt[a], mt[c]
    return sum(count * lam[crow[tr ^ row[trinv]]]
               for (tr, trinv), count in _gl_trace_histogram(fp, t))


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


def kloosterman_gl(fp: FieldParams, t: int, a: int, method: str = "all", c: int = 1) -> int:
    """Kloosterman sum for GL(t,q): sum of psi(Tr w + a Tr w^-1) over GL(t,q).

    method selects the recursion, the closed form, or direct enumeration;
    "all" runs every route gl_routes names at this size and insists they
    agree. Any method is first charged r t^3 bits against
    TRANSFORM_BIT_BUDGET: the recursion takes t steps over values of about
    r t^2 bits. gl_routes is then the one gate: a named method it does not
    list at (t, q) raises BudgetError.
    K_GL(0) = 1 by convention; t = 1 is the plain Kloosterman sum.
    """
    k1 = kloosterman_value(fp, a, 1, c)  # checks a and c
    field.check_int("t", t, 0)
    if method not in GL_METHODS + ("all",):
        raise ValueError(f"unknown method {method!r}")
    charge(_gl_bits(t, fp.q), "K_GL({0}) over GF({1}), {0} steps over values of about "
           "r t^2 bits", "lower t", t, fp.q)
    routes = {
        "recursion": lambda: _kloosterman_gl_recursion(fp, t, k1),
        "closed_form": lambda: _kloosterman_gl_closed_form(fp, t, k1),
        "brute_force": lambda: _kloosterman_gl_brute(fp, t, a, c),
    }
    fits = gl_routes(t, fp.q)
    if method != "all":
        if method not in fits:
            raise BudgetError(f"K_GL({t}) over GF({fp.q}) by {method}: over budget "
                              f"{GL_BRUTE_BUDGET} on |GL(t,q)| for brute_force, F(t+1) for "
                              f"closed_form; routes that fit: {', '.join(fits)}")
        return routes[method]()
    got = {name: routes[name]() for name in fits}
    if len(set(got.values())) != 1:
        raise ConsistencyError("kloosterman_gl methods disagree",
                               t=t, a=a, q=fp.q, **got)
    return got["recursion"]


def verify_carlitz(fp: FieldParams, a: int) -> dict:
    """Check K_2(lambda;a) = K(lambda;a)^2 - q, both sides from the values tables."""
    field.check_unit(fp, a, "a")
    k2 = kloosterman_values(fp, 2)[a]
    k1 = kloosterman_values(fp, 1)[a]
    rhs = k1 ** 2 - fp.q
    return {"a": a, "k2": k2, "k1_squared_minus_q": rhs, "ok": k2 == rhs}


def verify_power_invariance(fp: FieldParams, a: int, s: int) -> dict:
    """Check K(lambda; a^(2^s)) = K(lambda; a)."""
    field.check_int("s", s, 0)
    field.check_unit(fp, a, "a")
    vals = kloosterman_values(fp, 1)
    lhs = vals[field.power(fp, a, 2 ** s)]
    rhs = vals[a]
    return {"a": a, "s": s, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def verify_theta_identities(fp: FieldParams, beta: int, b: int | None = None) -> dict:
    """Evaluate the Artin-Schreier denominator sums against Kloosterman sums.

    Part (a): sum over alpha outside {0,1} of lambda(beta/(alpha^2+alpha))
    equals K(lambda;beta) - 1. Part (b), for b of trace 1, outside the
    Artin-Schreier image (so x^2+x+b is irreducible): summing over all alpha
    with denominator alpha^2+alpha+b gives -K(lambda;beta) - 1.
    """
    field.check_unit(fp, beta, "beta")
    lam, invt = field.char_table(fp), field.inv_table(fp)
    mt = field.mul_table(fp)
    brow = mt[beta]
    denoms = [mt[alpha][alpha] ^ alpha for alpha in field.elements(fp)]
    k1 = kloosterman_values(fp, 1)[beta]
    out = {"beta": beta, "k1": k1}
    lhs_a = sum(lam[brow[invt[d]]] for d in denoms[2:])
    out["part_a"] = {"lhs": lhs_a, "rhs": k1 - 1, "ok": lhs_a == k1 - 1}
    if b is not None:
        field.check_element(fp, b)
        if field.trace_table(fp)[b] == 0:  # the Artin-Schreier image is the trace kernel
            raise ValueError(f"b = {b} is of the form alpha^2 + alpha; "
                             "x^2 + x + b is not irreducible")
        lhs_b = sum(lam[brow[invt[d ^ b]]] for d in denoms)
        out["part_b"] = {"lhs": lhs_b, "rhs": -k1 - 1, "ok": lhs_b == -k1 - 1}
    out["ok"] = all(part["ok"] for key, part in out.items() if key.startswith("part_"))
    return out


def verify_twisted_sum(fp: FieldParams, beta: int, m: int) -> dict:
    """Check sum over a != 0 of lambda(a beta) K_m(lambda;a) against its closed form.

    The closed form is q K_(m-1)(lambda; 1/beta) + (-1)^(m+1) for beta != 0
    and (-1)^(m+1) for beta = 0, where K_0(lambda; x) means lambda(x).
    (-a beta = a beta in characteristic 2.) The left side reads the
    convolution table kloosterman_values, the right side one direct
    kloosterman sum. Both rest on the substitution x -> a/x, so this does not
    test the table independently; in verify, values_table_vs_direct does at
    m = 1 and carlitz at m = 2.
    """
    field.check_element(fp, beta)
    field.check_int("m", m, 1)
    lam = field.char_table(fp)
    vals = kloosterman_values(fp, m)
    brow = field.mul_table(fp)[beta]
    lhs = sum(lam[brow[a]] * vals[a] for a in field.units(fp))
    if beta == 0:
        rhs = (-1) ** (m + 1)
    else:
        binv = field.inv(fp, beta)
        km1 = lam[binv] if m == 1 else kloosterman(fp, binv, m - 1)
        rhs = fp.q * km1 + (-1) ** (m + 1)
    return {"beta": beta, "m": m, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def kloosterman_range(fp: FieldParams) -> set:
    """Values K(lambda; .) takes on F_q^*: integers t = -1 (mod 4), t^2 < 4q.

    Only valid for r >= 2 (for q = 2 the single value is +1, outside this
    description).
    """
    field.check_int("r", fp.r, 2)
    q = fp.q
    bound = 1
    while (bound + 1) ** 2 < 4 * q:
        bound += 1
    return {t for t in range(-bound, bound + 1) if t % 4 == 3 and t * t < 4 * q}
