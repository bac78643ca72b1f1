import hashlib

import pytest

from ksums import cli, verify
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
    (2, 2, 5, "4a4cdbe13962b643348b4178ae56b2db4c446de74abd3c2fa2a847b85910bfef"),
    (3, 3, 10, "5b449a7623fc56ba5b598e0c0163f19e11393559c45eaf65df6bab026fd393f2"),
], ids=["2-2-5", "3-3-10"])
def test_report_bytes_pinned(capsys, max_r, max_n, h_max, digest):
    # a change that adds or alters report rows on purpose updates these digests;
    # the last rows added were codes.pless_identity, one per family of length <= 40
    code = cli.main(["verify", "all", "--max-r", str(max_r), "--max-n", str(max_n),
                     "--h-max", str(h_max)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_values_table_rows():
    # one row per r comparing the convolution tables with direct sums
    report = verify.run_checks(max_r=3, max_n=1, h_max=1)
    rows = [c for c in report["checks"] if c["name"] == "charsums.values_table_vs_direct"]
    assert [c["params"] for c in rows] == [{"r": 1}, {"r": 2}, {"r": 3}]
    assert all(c["pass"] and c["actual"] == "[]" for c in rows)


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
