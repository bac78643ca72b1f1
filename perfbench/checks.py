"""Correctness gate: each request's output against an independent route.

Runs in the benchmark's own process, outside the timed window, and imports
ksums from the checkout. Each request type has its own route:

- `verify all`: no failed check, and at least the number of checks the
  tier had when the benchmark was defined (checks may be added, none lost).
- `moments recursive`: every value equals the brute-force `charsums.moment`.
- `moments oracle` and `ksum`: Kloosterman sums rebuilt from the additive
  character by the multiplicative convolution
  K_m(b) = sum_(x != 0) lambda(x) K_(m-1)(b/x), K_0 = lambda, using only
  `field` arithmetic, with K_m(lambda(c .); a) = K_m(lambda; c^(m+1) a).
- `ksum gl`: every route in the output agrees with the library's recursion.
- `group enum`: every cell order equals the `group_counts` closed form, as
  do the histogram total and, with --elements, the number of distinct elements.
- `code weights --mode direct`: every weight equals the formula route.
- `code dist` (full): equals `weight_distribution_macwilliams` and has total
  mass 2^k, k the code's dimension.

`check(argv, stdout)` returns None when the output is right and a reason
otherwise. Expected values are cached per argv, so repeated passes pay once.
"""

import json
from functools import lru_cache

from ksums import charsums, coset_codes, field, orthogroup

# verify all (max_r, max_n, h_max) -> number of checks when the benchmark was defined
VERIFY_TOTALS = {(2, 2, 5): 166, (3, 3, 10): 314, (6, 3, 10): 1142, (2, 1, 3): 87}


def _options(argv):
    """Split argv into its command words and its --key [value] options."""
    words, opts = [], {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            words.append(tok)
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[tok[2:]] = argv[i + 1]
            i += 2
        else:
            opts[tok[2:]] = True
            i += 1
    return tuple(words), opts


@lru_cache(maxsize=None)
def _convolved(r, m):
    """K_m(lambda; b) for every b (slot 0 unused past m = 0), by convolving K_(m-1)."""
    fp = field.binary_field(r)
    lam = [field.additive_char(fp, x) for x in field.elements(fp)]
    if m == 0:
        return lam
    prev = _convolved(r, m - 1)
    mul, inv = field.mul_table(fp), field.inv_table(fp)
    return [None] + [sum(lam[x] * prev[mul[b][inv[x]]] for x in field.units(fp))
                     for b in field.units(fp)]


def _kloosterman(r, m, a, c):
    fp = field.binary_field(r)
    return _convolved(r, m)[field.mul(fp, field.power(fp, c, m + 1), a)]


@lru_cache(maxsize=None)
def _oracle_moments(r, m, h_max, c):
    fp = field.binary_field(r)
    values = [_kloosterman(r, m, a, c) for a in field.units(fp)]
    return [str(sum(v ** h for v in values)) for h in range(h_max + 1)]


def _check_verify(opts, doc):
    key = (int(opts["max-r"]), int(opts["max-n"]), int(opts["h-max"]))
    summary = doc["summary"]
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    if failed or summary["failed"]:
        return f"verify reports failed checks: {failed[:5]}"
    if not summary["total"] == summary["passed"] == len(doc["checks"]):
        return f"verify summary inconsistent: {summary}"
    if summary["total"] < VERIFY_TOTALS.get(key, 1):
        return f"verify ran {summary['total']} checks, expected at least {VERIFY_TOTALS[key]}"
    return None


@lru_cache(maxsize=None)
def _recursive_expected(family, n, r, h_max):
    fp = field.binary_field(r)
    fam = coset_codes.parse_family(family, n, fp)
    if fam.codim == 1:
        kinds = [("mk", lambda h: charsums.moment(fp, 1, h))]
    else:
        kinds = [("mk2", lambda h: charsums.moment(fp, 2, h)),
                 ("mk_even", lambda h: charsums.moment(fp, 1, 2 * h))]
    return [(kind, h, str(oracle(h))) for kind, oracle in kinds for h in range(h_max + 1)]


def _check_recursive(opts, doc):
    got = [(row["kind"], row["h"], row["recursive"]) for row in doc["rows"]]
    expected = _recursive_expected(opts["family"], int(opts["n"]), int(opts["r"]),
                                   int(opts["h-max"]))
    return None if got == expected else "recursive moments differ from the oracle"


def _check_oracle(opts, doc):
    r, m = int(opts["r"]), int(opts["m"])
    got = [row["value"] for row in doc["moments"]]
    expected = _oracle_moments(r, m, int(opts["h-max"]), int(opts["c"], 16))
    return None if got == expected else "oracle moments differ from the convolution route"


def _check_ksum(opts, doc):
    r, m = int(opts["r"]), int(opts["m"])
    expected = _kloosterman(r, m, int(opts["a"], 16), int(opts["c"], 16))
    return None if doc["value"] == str(expected) else f"K = {doc['value']}, expected {expected}"


@lru_cache(maxsize=None)
def _gl_expected(r, t, a, c):
    fp = field.binary_field(r)
    return str(charsums.kloosterman_gl(fp, t, a, "recursion", c))


def _check_gl(opts, doc):
    expected = _gl_expected(int(opts["r"]), int(opts["t"]), int(opts["a"], 16),
                            int(opts["c"], 16))
    routes = dict(doc["values"], value=doc["value"])
    if opts["method"] == "all" and "closed_form" not in routes:
        return "GL request with every route lacks the closed form"
    wrong = {k: v for k, v in routes.items() if v != expected}
    return f"GL routes differ from the recursion {expected}: {wrong}" if wrong else None


def _check_group_enum(opts, doc):
    r, n = int(opts["r"]), int(opts["n"])
    orders = orthogroup.group_counts(n, 1 << r)["cell_orders"]
    cells = doc["cells"]
    if [c["cell"] for c in cells] != list(range(n + 1)):
        return "group enum did not report every cell"
    for c in cells:
        order = orders[c["cell"]]
        if c["order"] != str(order):
            return f"cell {c['cell']} has order {c['order']}, expected {order}"
        if sum(int(v) for v in c["trace_histogram"].values()) != order:
            return f"cell {c['cell']} trace histogram does not sum to its order"
        if "elements" in opts and len(set(c["elements"])) != order:
            return f"cell {c['cell']} does not list {order} distinct elements"
    return None


def _family(family, n, r):
    return coset_codes.parse_family(family, int(n), field.binary_field(int(r)))


@lru_cache(maxsize=None)
def _formula_weights(family, n, r):
    f = _family(family, n, r)
    return [(format(a, "x"), str(coset_codes.dual_weight(f, a, "formula")))
            for a in field.units(f.fp)]


def _check_weights(opts, doc):
    got = [(row["a"], row["weight"]) for row in doc["weights"]]
    expected = _formula_weights(opts["family"], opts["n"], opts["r"])
    return None if got == expected else "direct dual weights differ from the formula"


@lru_cache(maxsize=None)
def _macwilliams(family, n, r):
    f = _family(family, n, r)
    dist = coset_codes.weight_distribution_macwilliams(f)
    kernel = len(coset_codes.dual_kernel(f))
    dimension = coset_codes.family_constants(f).size - f.fp.r + kernel.bit_length() - 1
    return [str(v) for v in dist], dimension


def _check_dist(opts, doc):
    expected, dimension = _macwilliams(opts["family"], opts["n"], opts["r"])
    got = doc["coefficients"]
    if got != expected:
        return "weight distribution differs from the MacWilliams transform"
    if sum(int(v) for v in got) != 2 ** dimension:
        return f"weight distribution mass is not 2^{dimension}"
    return None


_CHECKS = {
    ("verify", "all"): _check_verify,
    ("moments", "recursive"): _check_recursive,
    ("moments", "oracle"): _check_oracle,
    ("ksum",): _check_ksum,
    ("ksum", "gl"): _check_gl,
    ("group", "enum"): _check_group_enum,
    ("code", "weights"): _check_weights,
    ("code", "dist"): _check_dist,
}


def check(argv, stdout: bytes):
    """None if stdout is the right answer to argv, else the reason it is not."""
    words, opts = _options(argv)
    checker = _CHECKS.get(words)
    if checker is None:
        return f"no independent route for {' '.join(words)}"
    try:
        return checker(opts, json.loads(stdout))
    except Exception as exc:  # unreadable output, or the library failing the route
        return f"check raised {exc!r}"
