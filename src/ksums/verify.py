"""One-shot cross-validation matrix over all desk-scale instances.

Every check pits a closed form against an independent route (enumeration,
brute-force summation, or a second formula) and records exact expected and
actual values as decimal strings. The set of checks is a deterministic
function of (max_r, max_n, h_max); report rows are sorted by check name.

The classical identities of K (Carlitz, Frobenius invariance, Artin-Schreier
denominator sums, twisted sums, value range) are rows read straight from the
values and field tables, each listing the elements that fail. The GL rows
compare the routes' whole tables (charsums.kloosterman_gl_table), and the
cell and Gauss-sum rows the formula and brute-force tuples of
orthogroup.cell_sums, each read once. The four identities of the order
bookkeeping (orthogroup.group_counts) are group.*_every_q rows at
q = 2^(2n+3) for each n <= max_n, which prove them for every q at that n
(see _order_identity_rows). They run first, largest n first, so a max_n
over group_counts' charge is refused before any row is built. The
enumerated rows read group_counts only where the cells are materialized. A
fact the other rows imply gets no row: |P+|^2 = |A_r| |cell| is |P+| times
the index row, and the cells' union has the group's order by the cell
order, disjointness and sum rows, the disjointness row counting a key
repeated within its cell as well as a key shared with a lower cell. A
ConsistencyError raised within one field's field or character-sum rows,
one (q, n)'s group rows (the every-q rows' q included), or one family's
code or moment rows, the building of a table they read included, becomes
a failing row of its own (field.raised, charsums.raised, group.raised,
codes.raised, moments.raised), not an abort; so does a code and dual
weight distribution of different lengths, which pless_check would refuse
as bad input.
"""

import math
from contextlib import contextmanager
from itertools import chain

from ksums import charsums, combinat, coset_codes, field, moments, orthogroup
from ksums.coset_codes import parse_family
from ksums.errors import ConsistencyError

# second irreducible of each degree, for basis-independence checks
ALT_MODULI = {3: 0b1101, 4: 0b11001, 5: 0b101001, 6: 0b1011011, 7: 0b10001001, 8: 0b101001101}


class Report:
    def __init__(self):
        self.checks = []  # the report's rows, as as_dict lists them

    def add(self, name, params, expected, actual):
        expected, actual = str(expected), str(actual)
        self.checks.append({"name": name, "params": params, "expected": expected,
                            "actual": actual, "pass": expected == actual})

    @contextmanager
    def guard(self, name, params):
        """Record a ConsistencyError raised in the block as one failing row `name`.

        The rows added before it stay, and the rest of the report still runs;
        every other exception propagates.
        """
        try:
            yield
        except ConsistencyError as exc:
            self.add(name, params, "[]", f"raised: {exc}")

    def summary(self):
        passed = sum(c["pass"] for c in self.checks)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    def as_dict(self):
        self.checks.sort(key=lambda c: (c["name"], sorted(c["params"].items())))
        return {"checks": self.checks, "summary": self.summary()}


def _field_checks(rep, fps):
    for fp in fps:
        with rep.guard("field.raised", {"r": fp.r}):
            _field_rows(rep, fp)


def _field_rows(rep, fp):
    q = fp.q
    lam, trt, mt = field.char_table(fp), field.trace_table(fp), field.mul_table(fp)
    bad = [c for c, row in enumerate(mt) if sum(lam[cx] for cx in row) != (q if c == 0 else 0)]
    rep.add("field.char_orthogonality", {"r": fp.r}, "[]", bad)
    # every entry from the modulus alone, reading no exp_log: x*0 = 0 and
    # x*y = xtime(x*(y//2)) + (x if y is odd), where xtime(v) = v*x is a
    # shift reduced by the modulus; row x's even entries are xtime of its
    # first half, and each odd entry is the even one before it plus x
    half = q >> 1
    xtime = [(v << 1) ^ fp.modulus if v & half else v << 1 for v in range(q)]
    bad = []
    for x, row in enumerate(mt):
        evens = [xtime[v] for v in row[:half]]
        if row[0] != 0 or list(row[0::2]) != evens or list(row[1::2]) != [v ^ x for v in evens]:
            bad.append(x)
    rep.add("field.mul_table_shift_and_add", {"r": fp.r}, "[]", bad)
    invt = field.inv_table(fp)
    rep.add("field.inv_table_inverts_units", {"r": fp.r}, "[]",
            [x for x in field.units(fp) if mt[x][invt[x]] != 1])
    rep.add("field.trace_onto_count", {"r": fp.r}, q // 2, sum(trt))
    rep.add("field.artin_schreier_is_trace_kernel", {"r": fp.r},
            [x for x, t in enumerate(trt) if t == 0],
            sorted(field.artin_schreier_image(fp)))
    if fp.r in ALT_MODULI:
        alt = field.binary_field(fp.r, ALT_MODULI[fp.r])
        rep.add("field.basis_independent_kloosterman", {"r": fp.r},
                sorted(charsums.kloosterman_values(fp, 1)[1:]),
                sorted(charsums.kloosterman_values(alt, 1)[1:]))


def _charsum_checks(rep, fps):
    for fp in fps:
        with rep.guard("charsums.raised", {"r": fp.r}):
            _charsum_rows(rep, fp)


def _charsum_rows(rep, fp):
    q = fp.q
    k1, k2 = charsums.kloosterman_values(fp, 1), charsums.kloosterman_values(fp, 2)
    lam, invt, mt = field.char_table(fp), field.inv_table(fp), field.mul_table(fp)
    units = field.units(fp)
    vals = k1[1:]
    rep.add("charsums.weil_bound", {"r": fp.r}, "[]",
            [v for v in vals if v * v >= 4 * q])
    rep.add("charsums.carlitz", {"r": fp.r}, "[]",
            [a for a in units if k2[a] != k1[a] ** 2 - q])
    frob = [field.elements(fp)]  # frob[s][a] = a^(2^s), one squaring a step
    for _ in range(3):
        frob.append([mt[x][x] for x in frob[-1]])
    rep.add("charsums.power_invariance", {"r": fp.r}, "[]",
            [(a, s) for a in units for s in range(4) if k1[frob[s][a]] != k1[a]])
    # (a) lambda(b/(alpha^2+alpha)) over alpha outside {0,1} sums to K(b) - 1; (b)
    # lambda(b/(alpha^2+alpha+outside)), x^2+x+outside irreducible, sums to -K(b) - 1
    outside = min(set(field.elements(fp)) - set(field.artin_schreier_image(fp)))
    inv_a = [invt[x ^ alpha] for alpha, x in enumerate(frob[1])][2:]
    inv_b = [invt[x ^ alpha ^ outside] for alpha, x in enumerate(frob[1])]
    rep.add("charsums.theta_identities", {"r": fp.r}, "[]",
            [b for b, brow in zip(units, mt[1:])
             if sum(lam[brow[x]] for x in inv_a) != k1[b] - 1]
            + [(b, outside) for b, brow in zip(units, mt[1:])
               if sum(lam[brow[x]] for x in inv_b) != -k1[b] - 1])
    # the m = 1 table's one oracle: direct sums at c = 1 and 2
    direct = {c: [None] + [charsums.kloosterman(fp, a, 1, c) for a in units]
              for c in units[:2]}
    # sum over a != 0 of lambda(a b) K_m(a) is q K_(m-1)(1/b) + (-1)^(m+1), K_0 = lambda,
    # the first term absent at b = 0; a direct sum, not the table, at m = 2
    rep.add("charsums.twisted_sum", {"r": fp.r}, "[]",
            [(b, m) for b, brow in enumerate(mt)
             for m, km, prev in ((1, k1, lam), (2, k2, direct[1]))
             if sum(lam[brow[a]] * km[a] for a in units)
             != (-1) ** (m + 1) + (q * prev[invt[b]] if b else 0)])
    rep.add("charsums.values_table_vs_direct", {"r": fp.r}, "[]",
            [(c, a) for c, sums in direct.items() for a in units
             if charsums.kloosterman_value(fp, a, 1, c) != sums[a]])
    if fp.r >= 2:  # at q = 2 the one value K = 1 is outside this range
        rep.add("charsums.value_range", {"r": fp.r},
                [t for t in range(-q, q) if t % 4 == 3 and t * t < 4 * q], sorted(set(vals)))
    # each other route's table that fits is read against the recursion's, so
    # a disagreement fails this row rather than raising from method "all"
    for t in range(4 if q == 2 else 3):
        rec = charsums.kloosterman_gl_table(fp, t, "recursion")
        others = {route: charsums.kloosterman_gl_table(fp, t, route)
                  for route in charsums.gl_routes(t, q) if route != "recursion"}
        for a in units:
            rep.add("charsums.gl_methods_agree", {"r": fp.r, "t": t, "a": a},
                    {route: rec[a] for route in others},
                    {route: table[a] for route, table in others.items()})
    for t in range(4, 7):
        rec = charsums.kloosterman_gl_table(fp, t, "recursion")
        closed = charsums.kloosterman_gl_table(fp, t, "closed_form")
        rep.add("charsums.gl_closed_form", {"r": fp.r, "t": t}, "[]",
                [a for a in units if rec[a] != closed[a]])


def _group_checks(rep, fps, max_n):
    for n in range(max_n, 0, -1):  # the largest first: refused by its charge before the rest
        q = 2 ** (2 * n + 3)
        with rep.guard("group.raised", {"n": n, "q": q}):
            _order_identity_rows(rep, n, q)
    for fp in fps:
        for n in range(1, max_n + 1):
            with rep.guard("group.raised", {"n": n, "q": fp.q}):
                _group_rows(rep, fp, n)


def _order_identity_rows(rep, n, q):
    # Kronecker substitution as a proof, at q = 2^(2n+3). Each side below is an
    # integer polynomial in q whose coefficients' absolute values sum to at most
    # 4^n. That sum is submultiplicative: 2 for q^j - 1 and 1 + q^j, 1 for q^j,
    # C(n,r) for [n r]_q. So it is at most 2^t for |GL(t,q)|, 2^n for |P+|,
    # |A_r| and each side of the q-binomial theorem, 2^n C(n,r) <= 4^n for a
    # cell and the other side of the GL and index rows, 4^n for the cells' sum
    # and 2^(n+1) for |O+(2n,q)|. The difference of two sides then has every
    # coefficient at most 2^(2n+1) in absolute value, so it vanishes at
    # 2^(2n+3) only if it is 0 (its lowest nonzero coefficient would be a
    # multiple of 2^(2n+3)): each row proves its identity for every q at this
    # n. Per-r rows list the failing r; the two sum rows show the difference.
    gl, qbin, p, a, index, cells, order = map(orthogroup.group_counts(n, q).get, (
        "gl_orders", "q_binomials", "parabolic_order", "a_r_orders", "parabolic_indices",
        "cell_orders", "group_order"))
    params, rs = {"n": n, "q": q}, range(n + 1)
    rep.add("group.gl_factorization_every_q", params, "[]",
            [r for r in rs if gl[n] != gl[r] * gl[n - r] * q ** (r * (n - r)) * qbin[r]])
    rep.add("group.coset_index_every_q", params, "[]", [r for r in rs if p != a[r] * index[r]])
    rep.add("group.q_binomial_theorem_every_q", params, 0,
            sum(index) - math.prod(1 + q ** j for j in range(n)))
    rep.add("group.cells_sum_to_order_every_q", params, 0, sum(cells) - order)


def _group_rows(rep, fp, n):
    if not orthogroup.enumerable(fp, n):
        return
    q = fp.q
    counts = orthogroup.group_counts(n, q)
    pkeys = orthogroup.enumerate_parabolic(fp, n)
    rep.add("group.parabolic_order", {"n": n, "q": q}, counts["parabolic_order"], len(pkeys))
    rep.add("group.parabolic_in_group", {"n": n, "q": q}, "[]",
            orthogroup.outside_oplus(fp, n, pkeys))
    lower, formula, brute = [], [], []
    for r in range(n + 1):
        cell = orthogroup.bruhat_cell(fp, n, r)
        params = {"n": n, "q": q, "cell": r}
        rep.add("group.cell_order", params, counts["cell_orders"][r], len(cell.elements))
        rep.add("group.cell_disjoint_from_lower", params, 0, _overlaps(cell.elements, lower))
        lower.append(cell.elements)
        rep.add("group.a_r_order", params,
                counts["a_r_orders"][r], len(orthogroup.a_r_subgroup(fp, n, r)))
        formula.append(orthogroup.cell_sums(fp, n, r, "formula"))
        brute.append(orthogroup.cell_sums(fp, n, r, "brute"))
        for c in field.units(fp):
            rep.add("group.cell_character_sum", dict(params, c=c), formula[r][c], brute[r][c])
    for c in field.units(fp):
        rep.add("group.gauss_sum", {"n": n, "q": q, "c": c},
                sum(sums[c] for sums in formula), sum(sums[c] for sums in brute))


def _overlaps(keys, lower) -> int:
    # the keys repeated within keys, then the lower cells' keys looked up in a
    # set of keys alone, freed on return: no set of the whole group, nor of
    # two cells at once, is ever built
    own = set(keys)
    return len(keys) - len(own) + sum(map(own.__contains__, chain.from_iterable(lower)))


def _families(fps, max_n):
    for fp in fps:
        for n in range(1, max_n + 1):
            for label in coset_codes.FAMILY_LABELS:
                try:
                    yield parse_family(label, n, fp)
                except ValueError:
                    continue


# The paper's products: scale = q^(e_a/4) [n codim]_q and cofactor =
# q^(e_b/4) prod_(d in extra) (q^(n+d) - 1), e = c2 n^2 + c1 n + c0, times the
# (q^(2j-1) - 1) and (q^(2j) - 1) for j = 1..floor((n-codim+1)/2) respectively.
_PAPER_FACTORS = {
    "dc1+": ((5, -6, 0), (1, -4, 4), ()),
    "dc1-": ((5, -4, -1), (1, -6, 5), (0,)),
    "dc2+": ((5, -6, 0), (1, -8, 12), (-1, 0)),
    "dc2-": ((5, -8, 3), (1, -6, 9), (0,)),
}


def _paper_constants(f) -> tuple:
    """The paper's (scale, cofactor) for f as lowest-terms pairs, independent of the cell model."""
    q, n = f.fp.q, f.n
    (a2, a1, a0), (b2, b1, b0), extra = _PAPER_FACTORS[f.label]
    ea, eb = (a2 * n * n + a1 * n + a0) // 4, (b2 * n * n + b1 * n + b0) // 4
    scale = combinat.q_binomial(n, f.codim, q)
    cofactor = math.prod(q ** (n + d) - 1 for d in extra)
    for j in range(1, (n - f.codim + 1) // 2 + 1):
        scale *= q ** (2 * j - 1) - 1
        cofactor *= q ** (2 * j) - 1
    return (combinat.lowest_terms(scale * q ** max(ea, 0), q ** max(-ea, 0)),
            combinat.lowest_terms(cofactor * q ** max(eb, 0), q ** max(-eb, 0)))


def _code_checks(rep, fps, max_n, h_max):
    for f in _families(fps, max_n):
        fp, q = f.fp, f.fp.q
        params = {"family": f.label, "n": f.n, "q": q}
        with rep.guard("codes.raised", params):
            consts = coset_codes.family_constants(f)
            (sn, sd), (cn, cd) = _paper_constants(f)
            num, den = combinat.lowest_terms(sn * cn, sd * cd)  # shown as num/den if not an int
            rep.add("codes.size_matches_cell_formula", params, orthogroup.cell_order(
                f.n, f.cell_index, q), num if den == 1 else f"{num}/{den}")
            counts = coset_codes.trace_multiplicities(f)
            rep.add("codes.multiplicities_total", params, consts.size, sum(counts.values()))
            weighted = 0
            for beta, cnt in counts.items():
                if cnt % 2:
                    weighted ^= beta
            rep.add("codes.multiplicities_weighted_sum", params, 0, weighted)
            if orthogroup.enumerable(fp, f.n):
                cell = orthogroup.bruhat_cell(fp, f.n, f.cell_index)
                hist = cell.trace_histogram
                rep.add("codes.multiplicities_formula_vs_enumeration", params,
                        sorted(counts.items()),
                        [(beta, hist.get(beta, 0)) for beta in field.elements(fp)])
                size = len(cell.elements)
                lam, mt = field.char_table(fp), field.mul_table(fp)
                sums = list(zip(mt[1:], orthogroup.cell_sums(fp, f.n, f.cell_index, "formula")[1:]))
                rep.add("codes.membership_count_identity", params, "[]",
                        [beta for beta in field.elements(fp)
                         if q * counts[beta] != size + sum(lam[row[beta]] * s for row, s in sums)])
            if consts.size <= 40:
                dist = coset_codes.weight_distribution(counts)
                rep.add("codes.distribution_symmetric", params, dist, dist[::-1])
                kern = coset_codes.dual_kernel(f)
                # the code's dimension: N less the dual's, r - log2 |kernel|
                k = consts.size - fp.r + len(kern).bit_length() - 1
                rep.add("codes.distribution_mass", params, 2 ** k, sum(dist))
                rep.add("codes.distribution_macwilliams", params, dist,
                        coset_codes.weight_distribution_macwilliams(f))
                dual = coset_codes.dual_weight_distribution(f)
                if len(dual) != len(dist):  # pless_check would refuse them as bad input
                    raise ConsistencyError("code and dual lengths differ", dual=len(dual) - 1)
                sides = coset_codes.pless_check(dist, dual, k, h_max)
                rep.add("codes.pless_identity", params, sides["lhs"], sides["rhs"])


def _moment_checks(rep, fps, max_n, h_max):
    for f in _families(fps, max_n):
        params = {"family": f.label, "n": f.n, "q": f.fp.q}
        with rep.guard("moments.raised", params):
            for kind in moments.kinds(f.codim):
                rep.add(kind.check, params, kind.oracles(f.fp, h_max), kind.sequence(f, h_max))
            rep.add("moments.weight_power_sum_expansion", params, "[]",
                    moments.verify_lhs_expansion(f, h_max))


def run_checks(max_r: int = 2, max_n: int = 2, h_max: int = 5) -> dict:
    """Run the full matrix up to field degree max_r and Witt index max_n."""
    field.check_int("max_r", max_r, 1, field.MAX_DEGREE)
    field.check_int("max_n", max_n, 1)
    field.check_int("h_max", h_max, 0)
    fps = [field.binary_field(r) for r in range(1, max_r + 1)]
    rep = Report()
    _group_checks(rep, fps, max_n)  # first: a max_n over its charge is refused before any row
    _field_checks(rep, fps)
    _charsum_checks(rep, fps)
    _code_checks(rep, fps, max_n, h_max)
    _moment_checks(rep, fps, max_n, h_max)
    return rep.as_dict()
