"""Character sums over GF(2^r).

m-dimensional Kloosterman sums and their power moments (the oracle side of
every moment identity in this package), Kloosterman sums for GL(t,q) by
three independent routes, and verification helpers for the classical
identities relating them.

One value K_m(a) is a direct sum over (F_q^*)^m (`kloosterman`, the `ksum`
command and the independent side of verify's values_table_vs_direct row).
A table of all of them (`kloosterman_values`, which moments read) is built
by multiplicative convolution instead, m levels of (q-1)^2 lookups.

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
the values table, every h up to h_max at once; moment gives one h.

All sums are exact Python ints. Every public function checks its integer
parameters with field.check_int and its nonzero elements with
field.check_unit before any work. Enumerations carry hard budgets and raise
BudgetError instead of degrading; gl_routes names the GL routes that fit.
The big-int passes, power_moments and the GL sums, are charged their bits
against errors.TRANSFORM_BIT_BUDGET before they start.
"""

from collections import Counter
from functools import lru_cache
from itertools import product, tee
from operator import itemgetter

from ksums import combinat, field, matgf
from ksums.errors import TRANSFORM_BIT_BUDGET, BudgetError, ConsistencyError, charge
from ksums.field import FieldParams

ENUM_BITS = 24
ENUM_BUDGET = 1 << ENUM_BITS  # max tuples of one direct sum, max lookups of one values table
GL_BRUTE_BUDGET = 10 ** 6  # max |GL(t,q)| for brute force, and max F(t+1) for the closed form

GL_METHODS = ("recursion", "closed_form", "brute_force")


def _scaled_char_table(fp, c):
    lam = field.char_table(fp)
    if c == 1:
        return lam
    return tuple(lam[cy] for cy in field.mul_table(fp)[c])


def kloosterman(fp: FieldParams, a: int, m: int = 1, c: int = 1) -> int:
    """m-dimensional Kloosterman sum for psi = lambda(c .) at parameter a.

    Direct sum of psi(a1 + ... + am + a/(a1...am)) over (F_q^*)^m.
    """
    field.check_unit(fp, a, "a")
    field.check_unit(fp, c, "c")
    field.check_int("m", m, 1)
    if m * fp.r > ENUM_BITS:  # q^m > ENUM_BUDGET, without forming q^m
        raise BudgetError(f"q^m tuples at m = {m}, q = {fp.q} exceed "
                          f"enumeration budget {ENUM_BUDGET}")
    lamc = _scaled_char_table(fp, c)
    invt = field.inv_table(fp)
    mt = field.mul_table(fp)
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


@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 must not hit m = 1's table
def kloosterman_values(fp: FieldParams, m: int = 1, c: int = 1) -> tuple:
    """Tuple indexed by a with K_m(lambda(c .); a) for a in F_q^*; slot 0 is None.

    Built by multiplicative convolution, not by direct sums:
    K_m(a) = sum over x != 0 of lambda(c x) K_(m-1)(a/x), with K_0 = lambda(c .).
    The m levels make m (q-1)^2 lookups; m q^2 must fit ENUM_BUDGET, and it
    is checked before the first level. Cached for every a and moment (verify
    (6,3,10): 5,643 hits; `moments oracle --h-max 10`: 10).
    """
    field.check_unit(fp, c, "c")
    field.check_int("m", m, 1)
    if m * fp.q * fp.q > ENUM_BUDGET:
        raise BudgetError(f"m q^2 = {m * fp.q * fp.q} table lookups exceed "
                          f"enumeration budget {ENUM_BUDGET}")
    lamc = _scaled_char_table(fp, c)
    mt, invt = field.mul_table(fp), field.inv_table(fp)
    # (lambda(c x), 1/x) for x != 0, so that a/x is mt[a][1/x]
    terms = [(lamc[x], invt[x]) for x in field.units(fp)]
    prev = lamc
    for _ in range(m):
        prev = (None,) + tuple(sum(s * prev[row[xinv]] for s, xinv in terms)
                               for row in mt[1:])
    return prev


def moment(fp: FieldParams, m: int, h: int, c: int = 1) -> int:
    """Oracle power moment: sum of K_m(psi;a)^h over a in F_q^*, from kloosterman_values."""
    field.check_int("h", h, 0)
    vals = kloosterman_values(fp, m, c)
    return sum(v ** h for v in vals[1:])


def power_moments(fp: FieldParams, m: int, h_max: int, step: int = 1, c: int = 1) -> list:
    """The oracle pass: sum of K_m(psi;a)^(step h) over a in F_q^*, for h = 0..h_max.

    psi = lambda(c .). The values of kloosterman_values repeat, so each
    distinct value is raised by one product per h. Charged before the table
    is built: h_max^2 (h_max + m r) bits, the shape of the recursion's pass
    charge (moments._pless_sums) with m r in place of bitlen N. Every
    family's length has bitlen N >= m r for each kind it generates, so the
    oracle of a moment request whose pass fits fits too.
    """
    field.check_int("m", m, 1)
    field.check_int("h_max", h_max, 0)
    charge(h_max ** 2 * (h_max + m * fp.r),
           "oracle moments up to h = {} of K_{} over GF({})", "lower h_max", h_max, m, fp.q)
    out = [0] * (h_max + 1)
    for v, mult in Counter(kloosterman_values(fp, m, c)[1:]).items():
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
    tuples = _closed_form_tuples(t)
    if tuples > GL_BRUTE_BUDGET:
        raise BudgetError(f"GL({t}) closed form: F(t+1) = {tuples} is over "
                          f"budget {GL_BRUTE_BUDGET}")
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
    order = combinat.gl_order(t, fp.q)
    if order > GL_BRUTE_BUDGET:
        raise BudgetError(f"|GL({t},{fp.q})| = {order} exceeds brute-force budget {GL_BRUTE_BUDGET}")
    if t == 0:
        return 1
    lamc = _scaled_char_table(fp, c)
    row = field.mul_table(fp)[a]
    return sum(count * lamc[tr ^ row[trinv]]
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
    r t^2 bits.
    K_GL(0) = 1 by convention; t = 1 is the plain Kloosterman sum.
    """
    field.check_unit(fp, a, "a")
    field.check_unit(fp, c, "c")
    field.check_int("t", t, 0)
    if method not in GL_METHODS + ("all",):
        raise ValueError(f"unknown method {method!r}")
    charge(_gl_bits(t, fp.q), "K_GL({0}) over GF({1}), {0} steps over values of about "
           "r t^2 bits", "lower t", t, fp.q)
    # psi = lambda(c .) turns K_GL(psi; a) into K_GL(lambda; c^2 a)
    mt = field.mul_table(fp)
    k1 = kloosterman_values(fp)[mt[mt[c][c]][a]]
    routes = {
        "recursion": lambda: _kloosterman_gl_recursion(fp, t, k1),
        "closed_form": lambda: _kloosterman_gl_closed_form(fp, t, k1),
        "brute_force": lambda: _kloosterman_gl_brute(fp, t, a, c),
    }
    if method != "all":
        return routes[method]()
    got = {name: routes[name]() for name in gl_routes(t, fp.q)}
    if len(set(got.values())) != 1:
        raise ConsistencyError("kloosterman_gl methods disagree",
                               t=t, a=a, q=fp.q, **got)
    return got["recursion"]


def verify_carlitz(fp: FieldParams, a: int) -> dict:
    """Check K_2(lambda;a) = K(lambda;a)^2 - q, both sides from the values tables."""
    field.check_unit(fp, a, "a")
    k2 = kloosterman_values(fp, 2)[a]
    k1 = kloosterman_values(fp)[a]
    rhs = k1 ** 2 - fp.q
    return {"a": a, "k2": k2, "k1_squared_minus_q": rhs, "ok": k2 == rhs}


def verify_power_invariance(fp: FieldParams, a: int, s: int) -> dict:
    """Check K(lambda; a^(2^s)) = K(lambda; a)."""
    field.check_int("s", s, 0)
    field.check_unit(fp, a, "a")
    vals = kloosterman_values(fp)
    lhs = vals[field.power(fp, a, 2 ** s)]
    rhs = vals[a]
    return {"a": a, "s": s, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def verify_theta_identities(fp: FieldParams, beta: int, b: int | None = None) -> dict:
    """Evaluate the Artin-Schreier denominator sums against Kloosterman sums.

    Part (a): sum over alpha outside {0,1} of lambda(beta/(alpha^2+alpha))
    equals K(lambda;beta) - 1. Part (b), for b outside the Artin-Schreier
    image (so x^2+x+b is irreducible): summing over all alpha with
    denominator alpha^2+alpha+b gives -K(lambda;beta) - 1.
    """
    field.check_unit(fp, beta, "beta")
    lam = field.char_table(fp)
    mt = field.mul_table(fp)
    invt = field.inv_table(fp)
    brow = mt[beta]
    k1 = kloosterman_values(fp)[beta]
    out = {"beta": beta, "k1": k1}
    lhs_a = 0
    for alpha in field.elements(fp):
        if alpha in (0, 1):
            continue
        d = mt[alpha][alpha] ^ alpha
        lhs_a += lam[brow[invt[d]]]
    out["part_a"] = {"lhs": lhs_a, "rhs": k1 - 1, "ok": lhs_a == k1 - 1}
    if b is not None:
        field.check_element(fp, b)
        if b in field.artin_schreier_image(fp):
            raise ValueError(f"b = {b} is of the form alpha^2 + alpha; "
                             "x^2 + x + b is not irreducible")
        lhs_b = 0
        for alpha in field.elements(fp):
            d = mt[alpha][alpha] ^ alpha ^ b
            lhs_b += lam[brow[invt[d]]]
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
    test the table independently; values_table_vs_direct in verify does.
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
