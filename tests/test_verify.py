import hashlib

import pytest

from ksums import charsums, cli, verify
from ksums.errors import BudgetError


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
    (2, 2, 5, "872db79ac9932eb1d1464097aaf37fd861c6733c519657eebb09f24641122e0b"),
    (3, 3, 10, "50b35e15b74d4149dc8fe693785c2fde27a5aadc991cfe7c30f72fd6daff5e81"),
    (8, 2, 10, "d91f64ea3e28cea923ca0026b83a8fa7b5a749b5c583b0cbeb9fee8c0ab37f7d"),
], ids=["2-2-5", "3-3-10", "8-2-10"])
def test_report_bytes_pinned(capsys, max_r, max_n, h_max, digest):
    # a change that adds or alters report rows on purpose updates these digests;
    # the last to do so rebuilt charsums.gl_methods_agree as one dict of named
    # routes a side and retired codes.dual_weights_direct_vs_formula
    code = cli.main(["verify", "all", "--max-r", str(max_r), "--max-n", str(max_n),
                     "--h-max", str(h_max)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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


def test_carlitz_catches_a_wrong_m_2_entry(monkeypatch):
    table = charsums.kloosterman_values

    def off_at_r_3(fp, m=1, c=1):
        vals = table(fp, m, c)
        return vals[:1] + (vals[1] + 4,) + vals[2:] if (fp.r, m, c) == (3, 2, 1) else vals

    monkeypatch.setattr(charsums, "kloosterman_values", off_at_r_3)
    report = verify.run_checks(3, 1, 1)
    carlitz = {c["params"]["r"]: c for c in report["checks"] if c["name"] == "charsums.carlitz"}
    assert [carlitz[r]["pass"] for r in (1, 2, 3)] == [True, True, False]
    assert carlitz[3]["actual"] == "[1]"


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
    # (2,1) reaches moment_scale_invariance's oracle pass at q = 4, and (1,2)
    # the first pless_identity row; each pass is charged before it runs
    with pytest.raises(BudgetError, match="h = 3000 .* over budget"):
        verify.run_checks(max_r, max_n, 3000)
