"""One-shot cross-validation matrix over all desk-scale instances.

Every check pits a closed form against an independent route (enumeration,
brute-force summation, or a second formula) and records exact expected and
actual values as decimal strings. The set of checks is a deterministic
function of (max_r, max_n, h_max); report rows are sorted by check name.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from ksums import charsums, combinat, coset_codes, field, moments, orthogroup
from ksums.coset_codes import parse_family

# second irreducible of each degree, for basis-independence checks
ALT_MODULI = {3: 0b1101, 4: 0b11001, 5: 0b101001, 6: 0b1011011, 7: 0b10001001, 8: 0b101001101}


class Check(NamedTuple):
    name: str
    params: dict
    expected: str
    actual: str
    passed: bool


class Report:
    def __init__(self):
        self.checks = []

    def add(self, name, params, expected, actual):
        expected, actual = str(expected), str(actual)
        self.checks.append(Check(name, params, expected, actual, expected == actual))

    def summary(self):
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    def as_dict(self):
        rows = sorted(self.checks, key=lambda c: (c.name, sorted(c.params.items())))
        return {
            "checks": [{"name": c.name, "params": c.params, "expected": c.expected,
                        "actual": c.actual, "pass": c.passed} for c in rows],
            "summary": self.summary(),
        }


def _field_checks(rep, fps):
    for fp in fps:
        q = fp.q
        lam, trt = field.char_table(fp), field.trace_table(fp)
        bad = [c for c, row in enumerate(field.mul_table(fp))
               if sum(lam[cx] for cx in row) != (q if c == 0 else 0)]
        rep.add("field.char_orthogonality", {"r": fp.r}, "[]", bad)
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
        q = fp.q
        vals = charsums.kloosterman_values(fp, 1)[1:]
        rep.add("charsums.weil_bound", {"r": fp.r}, "[]",
                [v for v in vals if v * v >= 4 * q])
        rep.add("charsums.carlitz", {"r": fp.r}, "[]",
                [a for a in field.units(fp) if not charsums.verify_carlitz(fp, a)["ok"]])
        rep.add("charsums.power_invariance", {"r": fp.r}, "[]",
                [(a, s) for a in field.units(fp) for s in range(4)
                 if not charsums.verify_power_invariance(fp, a, s)["ok"]])
        bad_theta = [b for b in field.units(fp)
                     if not charsums.verify_theta_identities(fp, b)["ok"]]
        outside = min(set(field.elements(fp)) - set(field.artin_schreier_image(fp)))
        bad_theta += [(b, outside) for b in field.units(fp)
                      if not charsums.verify_theta_identities(fp, b, outside)["ok"]]
        rep.add("charsums.theta_identities", {"r": fp.r}, "[]", bad_theta)
        rep.add("charsums.twisted_sum", {"r": fp.r}, "[]",
                [(b, m) for b in field.elements(fp) for m in (1, 2)
                 if not charsums.verify_twisted_sum(fp, b, m)["ok"]])
        # direct sums are the m = 1 table's oracle only, at c = 1 and 2 through
        # kloosterman_value; carlitz ties the m = 2 table to m = 1 at every a
        rep.add("charsums.values_table_vs_direct", {"r": fp.r}, "[]",
                [(c, a) for c in field.units(fp)[:2] for a in field.units(fp)
                 if charsums.kloosterman_value(fp, a, 1, c) != charsums.kloosterman(fp, a, 1, c)])
        if fp.r >= 2:
            rep.add("charsums.value_range", {"r": fp.r},
                    sorted(charsums.kloosterman_range(fp)), sorted(set(vals)))
        # each other route that fits runs by name against the recursion, so a
        # disagreement fails this row rather than raising from method "all"
        for t in range(4 if q == 2 else 3):
            routes = [route for route in charsums.gl_routes(t, q) if route != "recursion"]
            for a in field.units(fp):
                rec = charsums.kloosterman_gl(fp, t, a, "recursion")
                rep.add("charsums.gl_methods_agree", {"r": fp.r, "t": t, "a": a},
                        {route: rec for route in routes},
                        {route: charsums.kloosterman_gl(fp, t, a, route) for route in routes})
        for t in range(4, 7):
            rep.add("charsums.gl_closed_form", {"r": fp.r, "t": t}, "[]",
                    [a for a in field.units(fp)
                     if charsums.kloosterman_gl(fp, t, a, "recursion")
                     != charsums.kloosterman_gl(fp, t, a, "closed_form")])


def _group_checks(rep, fps, max_n):
    for fp in fps:
        q = fp.q
        for n in range(1, max_n + 1):
            counts = orthogroup.group_counts(n, q)
            rep.add("group.order_closed_form_vs_cells", {"n": n, "q": q},
                    counts["group_order"], sum(counts["cell_orders"]))
            if not orthogroup.enumerable(fp, n):
                continue
            pkeys = orthogroup.enumerate_parabolic(fp, n)
            rep.add("group.parabolic_order", {"n": n, "q": q},
                    counts["parabolic_order"], len(pkeys))
            rep.add("group.parabolic_in_group", {"n": n, "q": q}, "[]",
                    orthogroup.outside_oplus(fp, n, pkeys))
            union = set()
            for r in range(n + 1):
                cell = orthogroup.bruhat_cell(fp, n, r)
                rep.add("group.cell_order", {"n": n, "q": q, "cell": r},
                        counts["cell_orders"][r], len(cell.elements))
                rep.add("group.cell_disjoint_from_lower", {"n": n, "q": q, "cell": r},
                        0, len(union.intersection(cell.elements)))
                union.update(cell.elements)
                rep.add("group.a_r_order", {"n": n, "q": q, "cell": r},
                        counts["a_r_orders"][r], len(orthogroup.a_r_subgroup(fp, n, r)))
                for c in field.units(fp):
                    rep.add("group.cell_character_sum", {"n": n, "q": q, "cell": r, "c": c},
                            orthogroup.exp_sum_cell(fp, n, r, c, "formula"),
                            orthogroup.exp_sum_cell(fp, n, r, c, "brute"))
            rep.add("group.union_is_group_order", {"n": n, "q": q},
                    counts["group_order"], len(union))
            for c in field.units(fp):
                rep.add("group.gauss_sum", {"n": n, "q": q, "c": c},
                        orthogroup.gauss_sum_oplus(fp, n, c, "formula"),
                        orthogroup.gauss_sum_oplus(fp, n, c, "brute"))


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
    """The paper's (scale, cofactor) for f, independent of the cell model."""
    q, n = f.fp.q, f.n
    (a2, a1, a0), (b2, b1, b0), extra = _PAPER_FACTORS[f.label]
    scale = Fraction(q) ** ((a2 * n * n + a1 * n + a0) // 4) * combinat.q_binomial(n, f.codim, q)
    cofactor = Fraction(q) ** ((b2 * n * n + b1 * n + b0) // 4) * math.prod(
        q ** (n + d) - 1 for d in extra)
    for j in range(1, (n - f.codim + 1) // 2 + 1):
        scale *= q ** (2 * j - 1) - 1
        cofactor *= q ** (2 * j) - 1
    return scale, cofactor


def _code_checks(rep, fps, max_n, h_max):
    for f in _families(fps, max_n):
        fp, q = f.fp, f.fp.q
        params = {"family": f.label, "n": f.n, "q": q}
        consts = coset_codes.family_constants(f)
        scale, cofactor = _paper_constants(f)
        rep.add("codes.size_matches_cell_formula", params,
                orthogroup.cell_order(f.n, f.cell_index, q), scale * cofactor)
        counts = coset_codes.trace_multiplicities(f, "formula")
        rep.add("codes.multiplicities_total", params, consts.size, sum(counts.values()))
        weighted = 0
        for beta, cnt in counts.items():
            if cnt % 2:
                weighted ^= beta
        rep.add("codes.multiplicities_weighted_sum", params, 0, weighted)
        if orthogroup.enumerable(fp, f.n):
            rep.add("codes.multiplicities_formula_vs_enumeration", params,
                    sorted(counts.items()),
                    sorted(coset_codes.trace_multiplicities(f, "brute_force").items()))
            size = len(orthogroup.bruhat_cell(fp, f.n, f.cell_index).elements)
            lam, mt = field.char_table(fp), field.mul_table(fp)
            sums = [(mt[a], orthogroup.exp_sum_cell(fp, f.n, f.cell_index, a))
                    for a in field.units(fp)]
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
            sides = coset_codes.pless_check(dist, dual, k, h_max)
            rep.add("codes.pless_identity", params, sides["lhs"], sides["rhs"])


def _moment_checks(rep, fps, max_n, h_max):
    for f in _families(fps, max_n):
        params = {"family": f.label, "n": f.n, "q": f.fp.q}
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
    _field_checks(rep, fps)
    _charsum_checks(rep, fps)
    _group_checks(rep, fps, max_n)
    _code_checks(rep, fps, max_n, h_max)
    _moment_checks(rep, fps, max_n, h_max)
    return rep.as_dict()
