"""Command-line surface: spec'd invocations, golden diffing, exit codes."""

from pathlib import Path

import pytest

from noncong.catalog import GROUPS
from noncong.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_traces_single_group_prime(capsys):
    rc, out, _ = run(capsys, "traces", "gamma_24.6.1^6", "--primes", "7")
    assert rc == 0
    assert "4, -188" in out


def test_traces_all_matches_golden_csv_bytes(capsys):
    rc, out, _ = run(capsys, "--format", "csv", "traces", "--all",
                     "--primes", "5..23,73")
    assert rc == 0
    assert out == (GOLDEN / "traces.csv").read_text()


def test_traces_golden_flag(capsys, tmp_path):
    rc, _, _ = run(capsys, "--format", "csv", "traces", "--all",
                   "--primes", "5..23,73", "--golden", str(GOLDEN / "traces.csv"))
    assert rc == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("group,parameterization,p,tr_p,tr_p2\nx,y,5,1,1\n")
    rc, _, err = run(capsys, "--format", "csv", "traces", "--all",
                     "--primes", "5..23,73", "--golden", str(bad))
    assert rc == 1 and "mismatch" in err


def test_traces_bad_prime_refused(capsys):
    rc, _, err = run(capsys, "traces", "gamma_24.6.1^6", "--primes", "5")
    assert rc == 0
    rc, _, err = run(capsys, "traces", "gamma_24.6.1^6", "--primes", "3")
    assert rc == 2
    assert "refused" in err


@pytest.mark.parametrize("primes,message", [
    ("5..x", "'5..x' is neither a prime nor a range a..b"),
    ("4", "4 is not prime"),
    ("5..23,1000000007", "1000000007 is above the prime limit 2003"),
])
def test_traces_bad_prime_input_refused(capsys, primes, message):
    rc, out, err = run(capsys, "traces", "--all", "--primes", primes)
    assert rc == 2 and out == ""
    assert err == f"refused: {message}\n"


def test_expand_group_form(capsys):
    rc, out, _ = run(capsys, "expand", "gamma_24.6.1^6", "h1", "--order", "8")
    assert rc == 0
    assert "(-4/3)*q^2" in out and "(-850/243)*q^5" in out


def test_expand_raw_eta_quotient_with_root(capsys):
    rc, out, _ = run(capsys, "expand", "eta", "1:4,2:-6,4:20", "--root", "3",
                     "--order", "6")
    assert rc == 0
    assert "(-176/81)*q^4" in out


def test_expand_eisenstein(capsys):
    rc, out, _ = run(capsys, "expand", "E6", "--order", "4")
    assert rc == 0
    assert out.strip() == "1 + 12*q + 36*q^2 + 12*q^3"


def test_expand_unknown_identifier_lists_catalog(capsys):
    rc, out, err = run(capsys, "expand", "gamma_nope", "h1")
    assert rc == 2 and out == ""
    assert err.startswith("refused: unknown group 'gamma_nope'; catalog has:")


def test_aswd_golden_diff_clean(capsys):
    rc, _, _ = run(capsys, "--format", "csv", "aswd", "gamma_24.6.1^6",
                   "--pmax", "47", "--golden",
                   str(GOLDEN / "ratios_gamma_24.6.1-6.csv"))
    assert rc == 0


@pytest.mark.parametrize("group,fname", [
    ("gamma_8^3.6.3.1^3", "ratios_gamma_8-3.6.3.1-3.csv"),
    ("gamma_18.6.3^3.1^3", "ratios_gamma_18.6.3-3.1-3.csv"),
    ("gamma_24.3.2^3.1^3B", "ratios_gamma_24.3.2-3.1-3B.csv"),
])
def test_aswd_golden_other_groups(capsys, group, fname):
    rc, _, _ = run(capsys, "--format", "csv", "aswd", group, "--pmax", "47",
                   "--golden", str(GOLDEN / fname))
    assert rc == 0


def test_aswd_human_output_shows_twist_annotations(capsys):
    rc, out, _ = run(capsys, "aswd", "gamma_8^3.2^3.3^2", "--pmax", "13")
    assert rc == 0
    assert "case1" in out and "L48" in out and "order" in out


def test_aswd_json(capsys):
    import json
    rc, out, _ = run(capsys, "--format", "json", "aswd", "gamma_24.6.1^6",
                     "--pmax", "7")
    data = json.loads(out)
    assert data[0]["caseKind"] == "case1"


def test_dim_output(capsys):
    rc, out, _ = run(capsys, "dim", "--group", "gamma_24.6.1^6")
    assert rc == 0
    assert "dim S3 = 2" in out and "u=8" in out and "u'=0" in out


def test_noncongruence_all(capsys):
    rc, out, _ = run(capsys, "noncongruence", "--all")
    assert rc == 0
    assert out.count("noncongruence") == 9


def test_isogeny_pair(capsys):
    rc, out, _ = run(capsys, "isogeny", "--pair", "4a", "--mode", "sampled",
                     "--primes", "101,103")
    assert rc == 0 and out.strip() == "pass"


def test_isogeny_missing_data(capsys, monkeypatch):
    monkeypatch.delenv("NONCONG_MODPOLY_PATH", raising=False)
    rc, _, err = run(capsys, "isogeny", "--pair", "1a")
    assert rc == 2 and "polynomial data required" in err


def test_isogeny_self_relation(capsys):
    rc, out, _ = run(capsys, "isogeny", "--self", "gamma_18.6.3^3.1^3",
                     "--mode", "symbolic")
    assert rc == 0 and out.strip() == "pass"


def test_catalog_dump(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0
    assert "[group gamma_24.6.1^6]" in out
    assert "[newform L432]" in out


def test_aswd_pn_bound_flag(capsys):
    rc, out, _ = run(capsys, "--format", "csv", "aswd", "gamma_24.6.1^6",
                     "--pmax", "13", "--pn-bound", "200")
    assert rc == 0
    assert "7,case1,47,47" in out


def test_cli_validation_of_format_and_pn_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "--format", "xml", "catalog")
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    rc, out, err = run(capsys, "aswd", "gamma_24.6.1^6", "--pmax", "13",
                       "--pn-bound", "12")
    assert (rc, out) == (2, "")
    assert err == ("refused: --pn-bound 12 is below --pmax 13: "
                   "each p needs n*p <= pn-bound for n = 1 at least\n")
    rc, out, _ = run(capsys, "--format", "csv", "aswd", "gamma_24.6.1^6",
                     "--pmax", "13", "--pn-bound", "13")
    assert rc == 0 and out.endswith("13,case1,147,147\n")


GROUP_LIST = ", ".join(GROUPS)


@pytest.mark.parametrize("argv,message", [
    (["aswd", "nosuch"], f"unknown group 'nosuch'; catalog has: {GROUP_LIST}"),
    (["traces", "nosuch"], f"unknown group 'nosuch'; catalog has: {GROUP_LIST}"),
    (["expand", "nosuch"], f"unknown group 'nosuch'; catalog has: {GROUP_LIST}"),
    (["expand", "eta", "1:x"],
     "eta quotient '1:x': '1:x' is not a pair scale:exponent like '2:-6'"),
    (["expand", "gamma_24.6.1^6", "h3"], "form 'h3' is neither h1 nor h2"),
    (["expand", "E6", "--order", "0"], "--order 0 is not a positive integer"),
    (["aswd", "gamma_24.6.1^6", "--pn-bound", "3"],
     "--pn-bound 3 is below --pmax 47: each p needs n*p <= pn-bound for n = 1 at least"),
    (["aswd", "gamma_24.6.1^6", "--pn-bound", "-5"],
     "--pn-bound -5 is below --pmax 47: each p needs n*p <= pn-bound for n = 1 at least"),
    (["aswd", "gamma_24.6.1^6", "--pn-bound", "0"],
     "--pn-bound 0 is below --pmax 47: each p needs n*p <= pn-bound for n = 1 at least"),
    (["aswd", "gamma_24.6.1^6", "--pmax", "600"],
     "--pn-bound 500 is below --pmax 600: each p needs n*p <= pn-bound for n = 1 at least"),
    (["aswd", "gamma_24.6.1^6", "--pmax", "3"], "--pmax 3 selects no prime p >= 5"),
    (["aswd", "gamma_24.6.1^6", "--pmax", "7000", "--pn-bound", "7000"],
     "--pn-bound 7000 with --pmax 7000 overflows the int64 series products mod p^2"),
    (["isogeny", "--pair", "4a", "--primes", "5..100000000"],
     "100000000 is above the prime limit 2003"),
    (["isogeny", "--pair", "4a", "--primes", "5..x"],
     "'5..x' is neither a prime nor a range a..b"),
    (["isogeny"], "give --pair or --self"),
    (["expand", "eta", "1:2,1:3"], "eta quotient '1:2,1:3': scale 1 is given twice"),
    (["expand", "eta", "1:24", "--root", "0"], "--root 0 is not a positive integer"),
    (["expand", "eta", "1:24", "--root", "-2"], "--root -2 is not a positive integer"),
    (["isogeny", "--self", "gamma_24.6.1^6", "--samples", "0"],
     "--samples 0 is not a positive integer"),
    (["isogeny", "--self", "gamma_24.6.1^6", "--samples", "-4"],
     "--samples -4 is not a positive integer"),
])
def test_input_refused_with_one_line(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"refused: {message}\n"


def test_expand_csv_serialization_format(capsys):
    rc, out, _ = run(capsys, "--format", "csv", "expand", "gamma_8^3.2^3.3^2",
                     "h2", "--order", "8")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "1/3\t1/1"
    assert lines[1] == "7/3\t-16/3"


def test_aswd_strict_flags_underived_rows(capsys):
    # p = 41, 43, 47 constants have no stored newform coefficient to match
    rc, _, err = run(capsys, "aswd", "gamma_9.6^3.3.2^3", "--pmax", "47",
                     "--strict")
    assert rc == 1 and "unmatched" in err
    rc, _, _ = run(capsys, "aswd", "gamma_9.6^3.3.2^3", "--pmax", "37",
                   "--strict")
    assert rc == 0
