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
    (2, 2, 5, "c73d1b595d4de424fb3fff5b3675ab8821d8345b6f705afb0353cc91c20460cb"),
    (3, 3, 10, "3cf7633fe8638aea0ae6c4289827935a8ceac94ce0f38e9129324eb10689b3a9"),
    (6, 3, 10, "1876ae708d92108fafb0ee2ebe45a89a37df8ed5c1e43b3616cae8c5f28766c1"),
    (8, 2, 10, "5f96b0893066d8ec09755c87b36f919558adea48b2481244ffc5c9b1d309b74e"),
], ids=["2-2-5", "3-3-10", "6-3-10", "8-2-10"])
def test_report_bytes_pinned(capsys, max_r, max_n, h_max, digest):
    # a change that adds or alters report rows on purpose updates these digests;
    # the last to do so retired charsums.moment_scale_invariance, whose two
    # oracle passes read one c = 1 values table once c enters only as a reindex
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
    charsums.kloosterman_values.cache_clear()
    assert verify.run_checks(6, 3, 10)["summary"]["failed"] == 0
    alt = sum(r <= 6 for r in verify.ALT_MODULI)
    assert len(levels) == 6 * (1 + 2) + alt == 22
    assert all(levels.count(1 << r) == 3 + (r in verify.ALT_MODULI) for r in range(1, 7))


def test_carlitz_catches_a_wrong_m_2_entry(monkeypatch):
    table = charsums.kloosterman_values

    def off_at_r_3(fp, m):
        vals = table(fp, m)
        return vals[:1] + (vals[1] + 4,) + vals[2:] if (fp.r, m) == (3, 2) else vals

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
    # (2,1) and (1,2) each reach the first codes.pless_identity row, whose
    # Pless sums are one pass charged before it runs
    with pytest.raises(BudgetError, match="h = 3000 .* over budget"):
        verify.run_checks(max_r, max_n, 3000)
