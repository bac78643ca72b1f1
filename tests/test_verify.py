import hashlib
import itertools
import json
import math
from array import array

import pytest

from ksums import charsums, cli, combinat, coset_codes, field, matgf, moments, orthogroup, verify
from ksums.errors import BudgetError, ConsistencyError
from ksums.field import binary_field


def test_tier1_all_pass():
    report = verify.run_checks(max_r=2, max_n=2, h_max=4)
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == report["summary"]["passed"]
    for check in report["checks"]:
        assert check["pass"], check
        assert isinstance(check["expected"], str)
        assert isinstance(check["actual"], str)


def test_report_is_deterministic_and_sorted():
    a = verify.run_checks(max_r=1, max_n=1, h_max=2)
    b = verify.run_checks(max_r=1, max_n=1, h_max=2)
    assert a == b
    names = [c["name"] for c in a["checks"]]
    assert names == sorted(names)


def test_parameter_validation():
    with pytest.raises(ValueError):
        verify.run_checks(max_r=0)
    with pytest.raises(ValueError):
        verify.run_checks(max_r=9)
    with pytest.raises(ValueError):
        verify.run_checks(max_n=0)
    with pytest.raises(ValueError):
        verify.run_checks(h_max=-1)


def test_tier2_group_slice():
    # the r=3 / n=3 additions: dc1-(1,8) moments and the (3,2) enumerations
    report = verify.run_checks(max_r=3, max_n=3, h_max=3)
    assert report["summary"]["failed"] == 0
    names = {c["name"] for c in report["checks"]}
    assert "moments.recursion_vs_oracle" in names
    params = [c["params"] for c in report["checks"]
              if c["name"] == "group.cell_order"]
    assert {"n": 3, "q": 2, "cell": 3} in params


@pytest.mark.parametrize("max_r,max_n,h_max,digest", [
    (1, 3, 4, "c02bb8c5758e7ee3db74590a07c12a8d2b4bf8c07ed383bb40e1abc7692ca540"),
    (2, 2, 5, "8a323cc41702a9838d37b69be7f7f8a7a6fd801b9ba23777cd884f6e06e0feaf"),
    (3, 3, 10, "b62c952fa5c8fe4a9e6a44422548822351a2d0d4de07ef46f66a9498d878981c"),
    (6, 3, 10, "c9da5b23e98c798f95a6f4a041d536072102e3a3c4a7f06319186b676c0434f2"),
    (8, 2, 10, "1cb6e1b8529cc57c6f13fb418d48dd139b6187b424f942fb958caf87224d86d5"),
], ids=["1-3-4", "2-2-5", "3-3-10", "6-3-10", "8-2-10"])
def test_report_bytes_pinned(capsys, max_r, max_n, h_max, digest):
    # a change that adds or alters report rows on purpose updates these digests;
    # the last to do so retired group.order_closed_form_vs_cells,
    # group.cell_size_every_q and group.union_is_group_order and moved the
    # every-q rows to q = 2^(2n+3)
    code = cli.main(["verify", "all", "--max-r", str(max_r), "--max-n", str(max_n),
                     "--h-max", str(h_max)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_csv_report_bytes_pinned(capsys):
    # the CSV table is built only for --format csv; these are its bytes at (2,2,5)
    code = cli.main(["verify", "all", "--max-r", "2", "--max-n", "2", "--format", "csv"])
    assert code == 0
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            == "8324dece7492f90be6b6fc14e45dce6d030b3d1ced8492d2ba8efae3f4f20d99")


def test_values_table_rows():
    # one row per r comparing the m = 1 tables with direct sums
    report = verify.run_checks(max_r=3, max_n=1, h_max=1)
    rows = [c for c in report["checks"] if c["name"] == "charsums.values_table_vs_direct"]
    assert [c["params"] for c in rows] == [{"r": 1}, {"r": 2}, {"r": 3}]
    assert all(c["pass"] and c["actual"] == "[]" for c in rows)


def test_direct_sums_only_at_m_1(monkeypatch):
    # carlitz, not a direct sum at every a, is the m = 2 table's oracle
    calls = []
    direct = charsums.kloosterman

    def counting(fp, a, m=1, c=1):
        calls.append(m)
        return direct(fp, a, m, c)

    monkeypatch.setattr(charsums, "kloosterman", counting)
    assert verify.run_checks(8, 2, 10)["summary"]["failed"] == 0
    assert calls and set(calls) == {1}


def test_each_values_table_is_built_once(monkeypatch):
    # every (field, m) is one cache key: verify (6,3,10) builds the m = 1 and
    # m = 2 tables of GF(2)..GF(64) and the m = 1 table of each alternative
    # modulus once, one convolution a level
    levels = []
    convolution = charsums._cyclic_convolution

    def counting(psi, level):
        levels.append(len(psi) + 1)  # q
        return convolution(psi, level)

    monkeypatch.setattr(charsums, "_cyclic_convolution", counting)
    assert verify.run_checks(6, 3, 10)["summary"]["failed"] == 0
    alt = sum(r <= 6 for r in verify.ALT_MODULI)
    assert len(levels) == 6 * (1 + 2) + alt == 22
    assert all(levels.count(1 << r) == 3 + (r in verify.ALT_MODULI) for r in range(1, 7))


def test_each_cell_buffer_is_traced_once(monkeypatch):
    # a cell's trace histogram is built with the cell: verify (3,3,4) reads
    # the traces of each of its 16 cell buffers once, however many group,
    # code and dual-weight rows read the histogram
    buffers = []
    key_traces = matgf.key_traces

    def counting(fp, n, keys):
        if isinstance(keys, memoryview):
            buffers.append((fp.q, n))
        return key_traces(fp, n, keys)

    monkeypatch.setattr(matgf, "key_traces", counting)
    assert verify.run_checks(3, 3, 4)["summary"]["failed"] == 0
    assert len(buffers) == orthogroup.bruhat_cell.cache_info().misses == 16


def _rows_with_one_entry_off(monkeypatch, m, a, delta):
    """The per-field charsums rows up to GF(8), K_m(lambda;a) moved by delta over GF(8) only.

    Only the charsums rows run; test_a_raised_inconsistency_is_a_failing_row
    runs the whole matrix on such a table.
    """
    table = charsums.kloosterman_values

    def off_at_r_3(fp, m_):
        vals = table(fp, m_)
        return vals[:a] + (vals[a] + delta,) + vals[a + 1:] if (fp.r, m_) == (3, m) else vals

    monkeypatch.setattr(charsums, "kloosterman_values", off_at_r_3)
    rep = verify.Report()
    verify._charsum_checks(rep, [binary_field(r) for r in (1, 2, 3)])
    return {(c["name"], c["params"]["r"]): c for c in rep.checks if set(c["params"]) == {"r"}}


def test_carlitz_catches_a_wrong_m_2_entry(monkeypatch):
    rows = _rows_with_one_entry_off(monkeypatch, 2, 1, 4)
    assert [rows["charsums.carlitz", r]["pass"] for r in (1, 2, 3)] == [True, True, False]
    assert rows["charsums.carlitz", 3]["actual"] == "[1]"


def test_identity_rows_catch_a_wrong_m_1_entry(monkeypatch):
    # 1 is its own Frobenius orbit, and 1 has trace 1 over GF(8), so it is the
    # least element outside the Artin-Schreier image
    rows = _rows_with_one_entry_off(monkeypatch, 1, 1, 4)
    for name in ("charsums.theta_identities", "charsums.twisted_sum"):
        assert [rows[name, r]["pass"] for r in (1, 2, 3)] == [True, True, False]
    assert rows["charsums.theta_identities", 3]["actual"] == "[1, (1, 1)]"
    assert rows["charsums.twisted_sum", 3]["actual"] == str([(b, 1) for b in range(8)])
    assert rows["charsums.power_invariance", 3]["pass"]


def test_power_invariance_catches_an_entry_off_its_orbit(monkeypatch):
    # 2 = x lies in the Frobenius orbit {2, 4, 6}: each (a, s) pairing 2 with
    # another point of it fails
    rows = _rows_with_one_entry_off(monkeypatch, 1, 2, 4)
    assert rows["charsums.power_invariance", 3]["actual"] == "[(2, 1), (2, 2), (4, 2), (6, 1)]"
    assert rows["charsums.power_invariance", 2]["pass"]


def test_value_range_catches_a_value_off_minus_1_mod_4(monkeypatch):
    # K(lambda;1) = -5 over GF(8) moved to -3: inside the Weil bound, but 1 (mod 4)
    rows = _rows_with_one_entry_off(monkeypatch, 1, 1, 2)
    assert rows["charsums.weil_bound", 3]["pass"]
    assert [rows["charsums.value_range", r]["pass"] for r in (2, 3)] == [True, False]
    assert rows["charsums.value_range", 3]["actual"] == "[-3, -1, 3]"


def test_a_raised_inconsistency_is_a_failing_row(monkeypatch, capsys):
    # K(lambda;1) over GF(8) moved by 4: the code layer's transform raises
    # ConsistencyError for dc1- over GF(8), and the report still lists the
    # charsums rows that name the wrong entry
    table = charsums.kloosterman_values

    def off_at_r_3(fp, m):
        vals = table(fp, m)
        return vals[:1] + (vals[1] + 4,) + vals[2:] if (fp.r, m) == (3, 1) else vals

    monkeypatch.setattr(charsums, "kloosterman_values", off_at_r_3)
    report = verify.run_checks(3, 1, 1)
    code = cli.main(["verify", "all", "--max-r", "3", "--max-n", "1", "--h-max", "1"])
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert {"charsums.carlitz", "codes.raised"} <= failed
    assert [c for c in report["checks"] if c["name"] == "codes.raised"] == [{
        "name": "codes.raised", "params": {"family": "dc1-", "n": 1, "q": 8},
        "expected": "[]", "actual": "raised: transform coefficient must be a nonnegative "
                                    "integer | acc=12, denom=8, j=1", "pass": False}]
    out = capsys.readouterr()
    assert code == 1
    assert json.loads(out.out) == report
    assert out.err == ""


def test_guard_records_only_consistency_errors():
    rep = verify.Report()
    with rep.guard("moments.raised", {"n": 1}):
        rep.add("moments.before", {"n": 1}, 1, 1)
        raise ConsistencyError("off", h=2)
    assert rep.checks == [
        {"name": "moments.before", "params": {"n": 1}, "expected": "1", "actual": "1",
         "pass": True},
        {"name": "moments.raised", "params": {"n": 1}, "expected": "[]",
         "actual": "raised: off | h=2", "pass": False}]
    for exc in (BudgetError("over"), ValueError("bad")):
        with pytest.raises(type(exc)), rep.guard("codes.raised", {}):
            raise exc
    assert len(rep.checks) == 2


def test_gl_routes_that_disagree_fail_their_rows(monkeypatch):
    # each route runs by name, so a wrong one fails its rows, not the whole report
    closed_form = charsums._kloosterman_gl_closed_form

    def off_at_t_2(fp, t, k1):
        return closed_form(fp, t, k1) + (t == 2)

    monkeypatch.setattr(charsums, "_kloosterman_gl_closed_form", off_at_t_2)
    report = verify.run_checks(2, 1, 1)
    rows = [c for c in report["checks"] if c["name"] == "charsums.gl_methods_agree"]
    assert {(c["params"]["t"], c["pass"]) for c in rows} == {
        (0, True), (1, True), (2, False), (3, True)}
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed and all(c["name"] == "charsums.gl_methods_agree" for c in failed)
    assert "'closed_form'" in failed[0]["actual"]


def test_pless_rows():
    # one row per family of length <= 40, each h = 0..h_max on both sides
    report = verify.run_checks(max_r=2, max_n=2, h_max=5)
    rows = [c for c in report["checks"] if c["name"] == "codes.pless_identity"]
    assert [c["params"] for c in rows] == [
        {"family": "dc1+", "n": 2, "q": 2}, {"family": "dc1-", "n": 1, "q": 2},
        {"family": "dc1-", "n": 1, "q": 4}, {"family": "dc2+", "n": 2, "q": 2}]
    assert all(c["pass"] for c in rows)
    assert rows[2]["actual"] == "[4, 6, 14, 36, 98, 276]"


@pytest.mark.parametrize("max_r, max_n", [(2, 1), (1, 2)])
def test_large_h_max_is_refused_by_its_first_pass(max_r, max_n):
    # (2,1) and (1,2) each reach the first codes.pless_identity row, whose
    # Pless sums are one pass charged before it runs
    with pytest.raises(BudgetError, match="h = 3000 .* over budget"):
        verify.run_checks(max_r, max_n, 3000)


def test_a_wrong_gl_table_entry_fails_its_rows(monkeypatch):
    # K_GL(2) by the recursion moved by 1 wherever K(lambda;a) = 3 over GF(4):
    # the report still returns, failing the t = 2 routes row and the cell sums
    # that read the table (cell 0 of O+(4,4), n - r = 2) at the c with K(c^2) = 3
    recursion = charsums._kloosterman_gl_recursion

    def off_at_3(fp, t, k1):
        return recursion(fp, t, k1) + (fp.q == 4 and t == 2 and k1 == 3)

    monkeypatch.setattr(charsums, "_kloosterman_gl_recursion", off_at_3)
    report = verify.run_checks(2, 2, 2)
    failed = {(c["name"], tuple(sorted(c["params"].items()))) for c in report["checks"]
              if not c["pass"]}
    assert ("charsums.gl_methods_agree", (("a", 1), ("r", 2), ("t", 2))) in failed
    assert ("group.cell_character_sum", (("c", 1), ("cell", 0), ("n", 2), ("q", 4))) in failed
    assert not any(name == "charsums.gl_methods_agree" and dict(params)["t"] != 2
                   for name, params in failed)
    assert ("group.cell_character_sum", (("c", 1), ("cell", 1), ("n", 2), ("q", 4))) not in failed


def test_raised_while_building_a_table_is_one_row(monkeypatch):
    # the closed form's integrality check over GF(4), and group_counts at n = 2,
    # each fail one row per guard (the every-q rows' q = 128 among them; over
    # GF(8), where O+(4,8) is not enumerated, no group row reads it), and the
    # other fields and n still report
    closed_form = charsums._kloosterman_gl_closed_form
    counts = orthogroup.group_counts

    def closed_form_raising(fp, t, k1):
        if fp.q == 4 and t == 5:
            raise ConsistencyError("GL closed form must be an integer", t=t)
        return closed_form(fp, t, k1)

    def counts_raising(n, q):
        if n == 2:
            raise ConsistencyError("cell size identity failed", n=n, q=q)
        return counts(n, q)

    monkeypatch.setattr(charsums, "_kloosterman_gl_closed_form", closed_form_raising)
    monkeypatch.setattr(orthogroup, "group_counts", counts_raising)
    report = verify.run_checks(3, 2, 1)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [(c["name"], c["params"], c["actual"]) for c in failed] == [
        ("charsums.raised", {"r": 2}, "raised: GL closed form must be an integer | t=5"),
        ("group.raised", {"n": 2, "q": 2}, "raised: cell size identity failed | n=2, q=2"),
        ("group.raised", {"n": 2, "q": 4}, "raised: cell size identity failed | n=2, q=4"),
        ("group.raised", {"n": 2, "q": 128}, "raised: cell size identity failed | n=2, q=128")]
    closed = [(c["params"]["r"], c["params"]["t"]) for c in report["checks"]
              if c["name"] == "charsums.gl_closed_form"]
    # over GF(4) the rows before the raise stay, t = 4 among them
    assert closed == [(1, 4), (1, 5), (1, 6), (2, 4), (3, 4), (3, 5), (3, 6)]


def test_a_cell_overlapping_a_lower_one_fails_disjointness(monkeypatch):
    # cell r given one key of cell r - 1 on top of its own, packed as the
    # cells are: the row fails at r alone, with one key counted
    cell = orthogroup.bruhat_cell
    for n, stubbed in [(1, 1), (2, 1), (2, 2), (3, 3)]:
        def overlapping(fp, n, r, stubbed=stubbed):
            out = cell(fp, n, r)
            if (fp.q, r) == (2, stubbed):
                keys = array("Q", [*out.elements, cell(fp, n, r - 1).elements[0]])
                out = out._replace(elements=memoryview(keys).toreadonly())
            return out

        monkeypatch.setattr(orthogroup, "bruhat_cell", overlapping)
        rows = [c for c in verify.run_checks(1, n, 0)["checks"]
                if c["name"] == "group.cell_disjoint_from_lower" and c["params"]["n"] == n]
        assert [(c["params"]["cell"], c["actual"], c["pass"]) for c in rows] == [
            (r, "1" if r == stubbed else "0", r != stubbed) for r in range(n + 1)], (n, stubbed)


def test_a_key_repeated_within_a_cell_fails_disjointness(monkeypatch):
    # cell r given one of its own keys again, packed as the cells are: the
    # row fails at r alone, with one key counted
    cell = orthogroup.bruhat_cell
    for n, stubbed in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        def repeating(fp, n, r, stubbed=stubbed):
            out = cell(fp, n, r)
            if (fp.q, r) == (2, stubbed):
                keys = array("Q", [*out.elements, out.elements[-1]])
                out = out._replace(elements=memoryview(keys).toreadonly())
            return out

        monkeypatch.setattr(orthogroup, "bruhat_cell", repeating)
        rows = [c for c in verify.run_checks(1, n, 0)["checks"]
                if c["name"] == "group.cell_disjoint_from_lower" and c["params"]["n"] == n]
        assert [(c["params"]["cell"], c["actual"], c["pass"]) for c in rows] == [
            (r, "1" if r == stubbed else "0", r != stubbed) for r in range(n + 1)], (n, stubbed)


def test_every_row_family_reports_a_raise_over_one_field(monkeypatch):
    # the trace table of GF(4) raising: each family's rows over GF(4) become
    # one *.raised row apiece, and GF(2) still reports in full
    trace_table = field.trace_table

    def raising_at_r_2(fp):
        if fp.r == 2:
            raise ConsistencyError("trace must land in F_2", r=2)
        return trace_table(fp)

    monkeypatch.setattr(field, "trace_table", raising_at_r_2)
    report = verify.run_checks(2, 1, 1)
    failed = [(c["name"], c["params"]) for c in report["checks"] if not c["pass"]]
    assert ("field.raised", {"r": 2}) in failed
    assert ("charsums.raised", {"r": 2}) in failed
    assert ("group.raised", {"n": 1, "q": 4}) in failed
    assert ("codes.raised", {"family": "dc1-", "n": 1, "q": 4}) in failed
    assert ("moments.raised", {"family": "dc1-", "n": 1, "q": 4}) in failed
    assert all(name.endswith(".raised") for name, _ in failed)
    gf2 = [c for c in report["checks"] if c["params"].get("r") == 1 or c["params"].get("q") == 2]
    assert len(gf2) > 20 and all(c["pass"] for c in gf2)


def test_order_identity_rows_run_at_every_n():
    rep = verify.Report()
    for n in range(1, 13):
        verify._order_identity_rows(rep, n, 2 ** (2 * n + 3))
    assert rep.summary() == {"total": 48, "passed": 48, "failed": 0}


def _order_identity_failures(n):
    rep = verify.Report()
    verify._order_identity_rows(rep, n, 2 ** (2 * n + 3))
    return {c["name"]: c["actual"] for c in rep.checks if not c["pass"]}


def test_a_perturbed_group_order_fails_its_every_q_row(monkeypatch):
    # the factor q^n - 1 of |O+(2n,q)| made q^n + 1
    real = orthogroup.group_order
    monkeypatch.setattr(orthogroup, "group_order",
                        lambda n, q: real(n, q) // (q ** n - 1) * (q ** n + 1))
    for n in range(1, 13):
        assert set(_order_identity_failures(n)) == {"group.cells_sum_to_order_every_q"}, n


def test_a_perturbed_gl_factor_fails_its_every_q_rows(monkeypatch):
    # the factor q - 1 of every |GL(t,q)|, t >= 1, made q + 1: the cells no
    # longer sum to |O+(2n,q)|, and |GL(n)| no longer factors over 0 < r < n
    real = combinat.gl_orders

    def perturbed(n, q):
        for t, order in enumerate(real(n, q)):
            yield order // (q - 1) * (q + 1) if t else order

    monkeypatch.setattr(combinat, "gl_orders", perturbed)
    for n in range(1, 13):
        failed = _order_identity_failures(n)
        assert "group.cells_sum_to_order_every_q" in failed, n
        assert failed.get("group.gl_factorization_every_q", "[]") == str(list(range(1, n))), n


def _every_q_sides(n, q):
    """Both sides of each every-q row at (n, q), as _order_identity_rows compares them."""
    counts = orthogroup.group_counts(n, q)
    gl, qbin, p, a, index, cells = map(counts.get, (
        "gl_orders", "q_binomials", "parabolic_order", "a_r_orders", "parabolic_indices",
        "cell_orders"))
    rs = range(n + 1)
    return {
        "gl_factorization": [(gl[n], gl[r] * gl[n - r] * q ** (r * (n - r)) * qbin[r])
                             for r in rs],
        "coset_index": [(p, a[r] * index[r]) for r in rs],
        "q_binomial_theorem": [(sum(index), math.prod(1 + q ** j for j in range(n)))],
        "cells_sum_to_order": [(sum(cells), counts["group_order"])],
    }


def _signed_digits(v, k):
    """The digits of v in base 2^k, lowest first, each in [-2^(k-1), 2^(k-1))."""
    out = []
    while v:
        d = v & ((1 << k) - 1)
        d -= (d >> (k - 1)) << k
        out.append(d)
        v = (v - d) >> k
    return out


def test_every_q_point_bounds_each_difference():
    # each side of the four every-q rows read as a polynomial in q, from its
    # value at q = 2^k far above the point 2^(2n+3): the coefficients' absolute
    # values sum to at most 4^n a side, so a difference of two sides has every
    # coefficient at most 2^(2n+1), and the polynomial read is the same at q = 4
    for n in range(1, 11):
        k = 8 * n + 8
        at_4 = _every_q_sides(n, 4)
        for name, pairs in _every_q_sides(n, 2 ** k).items():
            for i, sides in enumerate(pairs):
                x, y = (_signed_digits(side, k) for side in sides)
                assert max(sum(map(abs, x)), sum(map(abs, y))) <= 4 ** n, (n, name, i)
                assert max(abs(u) + abs(v) for u, v in itertools.zip_longest(
                    x, y, fillvalue=0)) <= 2 ** (2 * n + 1), (n, name, i)
                values_at_4 = tuple(sum(c * 4 ** j for j, c in enumerate(poly)) for poly in (x, y))
                assert values_at_4 == at_4[name][i], (n, name, i)


def test_a_raised_cell_order_fails_rows_that_stay(monkeypatch):
    # the fault the retired cell size, closed-form sum and union rows caught:
    # one cell order of group_counts 1 too large, and nothing else
    real = orthogroup.group_counts

    def raised(n, q):
        counts = real(n, q)
        cells = counts["cell_orders"]
        return dict(counts, cell_orders=cells[:-1] + [cells[-1] + 1])

    monkeypatch.setattr(orthogroup, "group_counts", raised)
    for n in range(1, 13):
        assert "group.cells_sum_to_order_every_q" in _order_identity_failures(n), n
    failed = {(c["name"], c["params"].get("cell")) for c in verify.run_checks(1, 2, 1)["checks"]
              if not c["pass"]}
    assert ("group.cell_order", 1) in failed and ("group.cell_order", 2) in failed
    assert {name for name, _ in failed} == {
        "group.cell_order", "group.cells_sum_to_order_every_q"}


def test_a_max_n_over_the_order_charge_is_refused_before_any_row(monkeypatch):
    # the every-q rows run first, largest n first, and their lists at
    # q = 2^(2n+3) hold about 4 (n + 2) n^2 (2n + 3) bits: 58 is the largest
    # max_n admitted
    added = []
    monkeypatch.setattr(verify.Report, "add", lambda self, *row: added.append(row))
    with pytest.raises(BudgetError, match=r"O\+\(118,2\^121\): about 102773044 bits, over"):
        verify.run_checks(1, 59, 0)
    assert added == []
    assert len(orthogroup.group_counts(58, 2 ** 119)["cell_orders"]) == 59


def _bump(table, i, value):
    return table[:i] + (value,) + table[i + 1:]


DC1_8 = coset_codes.parse_family("dc1-", 1, binary_field(3))

# id -> (module, function, which calls to corrupt, the corruption of one entry,
# a row that must fail)
FAULTS = {
    "kloosterman_values-m1": (charsums, "kloosterman_values", lambda fp, m: (fp.q, m) == (8, 1),
                              lambda k: _bump(k, 1, k[1] + 4), "charsums.values_table_vs_direct"),
    "kloosterman_values-m2": (charsums, "kloosterman_values", lambda fp, m: (fp.q, m) == (8, 2),
                              lambda k: _bump(k, 1, k[1] + 4), "charsums.carlitz"),
    "char_table": (field, "char_table", lambda fp: fp.q == 4,
                   lambda lam: _bump(lam, 3, -lam[3]), "field.char_orthogonality"),
    "mul_table": (field, "mul_table", lambda fp: fp.q == 4,
                  lambda mt: _bump(mt, 2, _bump(mt[2], 3, mt[2][3] ^ 1)),
                  "field.mul_table_shift_and_add"),
    "inv_table": (field, "inv_table", lambda fp: fp.q == 8,
                  lambda inv: _bump(inv, 2, inv[3]), "field.inv_table_inverts_units"),
    "trace_table": (field, "trace_table", lambda fp: fp.q == 4,
                    lambda tr: _bump(tr, 3, 1 - tr[3]), "field.trace_onto_count"),
    "family_constants": (coset_codes, "family_constants", lambda f: f == DC1_8,
                         lambda c: c._replace(size=c.size + 1), "codes.raised"),
    "trace_multiplicities": (coset_codes, "trace_multiplicities",
                             lambda f: f == DC1_8,
                             lambda m: {**m, 0: m[0] + 1},
                             "codes.multiplicities_formula_vs_enumeration"),
    "pless_sums": (moments, "_pless_sums", lambda f, h_max: f == DC1_8,
                   lambda sums: _bump(sums, 2, sums[2] + 1), "moments.recursion_vs_oracle"),
}


@pytest.mark.parametrize("case", FAULTS)
def test_one_corrupted_table_entry_fails_a_named_row(monkeypatch, case):
    module, name, where, corrupt, row = FAULTS[case]
    real = getattr(module, name)

    def patched(*args):
        out = real(*args)
        return corrupt(out) if where(*args) else out

    monkeypatch.setattr(module, name, patched)
    report = verify.run_checks(3, 2, 4)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert report["summary"]["failed"] > 0
    assert row in failed
