"""Command-line surface: spec'd invocations, golden diffing, exit codes."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from noncong import congruence
from noncong.catalog import GROUPS, primes_upto
from noncong.cli import main
from noncong.surfaces import PHI2

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


def test_traces_json_rows_equal_csv_rows(capsys):
    argv = ["traces", "gamma_24.6.1^6", "--primes", "5,7"]
    _, out, _ = run(capsys, "--format", "json", *argv)
    rows = [(r["group"], r["parameterization"], r["p"], r["tr_p"], r["tr_p2"])
            for r in json.loads(out)]
    _, csv, _ = run(capsys, "--format", "csv", *argv)
    assert [",".join(map(str, row)) for row in rows] == csv.splitlines()[1:]
    assert [row[2:] for row in rows] == [(5, 0, 100), (7, 4, -188)]


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


@pytest.mark.parametrize("fmt", ["human", "csv"])
@pytest.mark.parametrize("root", [2, 3, 4, 6])
def test_expand_eta_root_of_power_is_lower_power(capsys, root, fmt):
    """(eta^24)^(1/k) = eta^(24/k): the k-th root of an integral unit, prime
    or composite k, prints the same series as the eta power itself."""
    rc, rooted, _ = run(capsys, "--format", fmt, "expand", "eta", "1:24",
                        "--root", str(root), "--order", "121")
    assert rc == 0
    rc, direct, _ = run(capsys, "--format", fmt, "expand", "eta", f"1:{24 // root}",
                        "--order", "121")
    assert rc == 0 and rooted == direct


def test_expand_eta_root_dividing_every_exponent_takes_no_root(capsys):
    """(eta^-24)^(1/24) prints as eta^-1, at the largest order and in well
    under the 43 s the root recurrence took there."""
    t0 = time.perf_counter()
    rc, rooted, _ = run(capsys, "expand", "eta", "1:-24", "--root", "24", "--order", "2000")
    assert time.perf_counter() - t0 < 5.0
    assert rc == 0
    assert rooted == run(capsys, "expand", "eta", "1:-1", "--order", "2000")[1]


def test_expand_eta_root_limit(capsys):
    """A root degree past the limit is refused before any series is built;
    roots up to the limit print as before."""
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "expand", "eta", "1:24", "--root", "100000", "--order", "100")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == "" and err == "refused: --root 100000 is above the limit 24\n"
    for root in (3, 24):
        rc, rooted, _ = run(capsys, "expand", "eta", "1:24", "--root", str(root),
                            "--order", "150")
        assert rc == 0
        assert rooted == run(capsys, "expand", "eta", f"1:{24 // root}", "--order", "150")[1]


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


def test_aswd_golden_mismatch_names_the_row(capsys, tmp_path):
    golden = (GOLDEN / "ratios_gamma_24.6.1-6.csv").read_text()
    bad = tmp_path / "bad.csv"
    bad.write_text(golden.replace("\n7,case1,47,47\n", "\n7,case1,47,48\n"))
    rc, _, err = run(capsys, "--format", "csv", "aswd", "gamma_24.6.1^6", "--pmax", "47",
                     "--golden", str(bad))
    assert (rc, err) == (1, "golden mismatch p=7: got ('case1', 47, 47), "
                            "want ('case1', 47, 48)\n")


def test_aswd_golden_zero_row_matches_either_label(capsys, tmp_path):
    golden = (GOLDEN / "ratios_gamma_24.3.2-3.1-3.csv").read_text()
    assert "\n41,case2,0,0\n" in golden
    relabelled = tmp_path / "relabelled.csv"
    relabelled.write_text(golden.replace("\n41,case2,0,0\n", "\n41,case1,0,0\n"))
    rc, _, err = run(capsys, "--format", "csv", "aswd", "gamma_24.3.2^3.1^3", "--pmax", "47",
                     "--golden", str(relabelled))
    assert (rc, err) == (0, "")


def _no_constant_ratio(group, bound, moduli):
    """Residue rows a_n = b_n = n + 1 mod m, on which no ratio is constant."""
    rows = np.array([np.arange(2, bound + 2) % m for m in moduli])
    return rows, rows


def test_aswd_indeterminate_rows(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(congruence, "coefficient_residues", _no_constant_ratio)
    argv = ["aswd", "gamma_24.6.1^6", "--pmax", "7"]
    rc, out, _ = run(capsys, *argv)
    assert (rc, out) == (0, "gamma_24.6.1^6 p=5: indeterminate\n"
                            "gamma_24.6.1^6 p=7: indeterminate\n")
    rc, out, _ = run(capsys, "--format", "csv", *argv)
    assert (rc, out) == (0, "p,case,c1,c2\n5,indeterminate,,\n7,indeterminate,,\n")
    golden = tmp_path / "indeterminate.csv"
    golden.write_text(out)
    rc, _, err = run(capsys, "--format", "csv", *argv, "--golden", str(golden))
    assert (rc, err) == (0, "")


@pytest.mark.parametrize("name", list(GROUPS))
def test_aswd_csv_rows_are_report_rows(capsys, name):
    rc, out, _ = run(capsys, "--format", "csv", "aswd", name, "--pmax", "97",
                     "--pn-bound", "1000")
    primes = [p for p in primes_upto(97) if p >= 5]
    reports = congruence.detect_bases(GROUPS[name], primes, 1000)
    assert rc == 0
    assert out.splitlines()[1:] == [",".join("" if v is None else str(v)
                                             for v in (r.p, *r.row)) for r in reports]


def test_aswd_human_output_shows_twist_annotations(capsys):
    rc, out, _ = run(capsys, "aswd", "gamma_8^3.2^3.3^2", "--pmax", "13")
    assert rc == 0
    assert "case1" in out and "L48" in out and "order" in out


def test_aswd_json(capsys):
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
    rc, out, err = run(capsys, "isogeny", "--pair", "1a")
    assert rc == 2 and out == "" and "polynomial data required" in err
    assert err.startswith("refused: ") and err.count("\n") == 1


@pytest.mark.parametrize("make,reason", [
    (lambda path: path.write_text("8\n1 0 abc\n"), "line 2: '1 0 abc' is not a term 'i j c'"),
    (lambda path: path.write_text(""), "no degree line: the file holds no data"),
    (lambda path: path.write_text("8\n4 0 1\n4 0 2\n"),
     "line 3: '4 0 2' repeats the term (4, 0) of line 2"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: None, "No such file or directory"),
], ids=["malformed-line", "empty", "repeated-term", "directory", "missing"])
def test_bad_modpoly_file_refused(capsys, tmp_path, make, reason):
    """Phi_8 (relation 1a) is not built in, so --modpoly is read."""
    path = tmp_path / "phi8.txt"
    make(path)
    rc, out, err = run(capsys, "--modpoly", str(path), "isogeny", "--pair", "1a")
    assert (rc, out) == (2, "")
    assert err == f"refused: polynomial data file {path}: {reason}\n"


def _phi2_file(path):
    path.write_text("2\n" + "".join(f"{i} {j} {c}\n" for i, j, c in PHI2.terms))
    return path


def test_modpoly_path_variable_is_read(capsys, monkeypatch, tmp_path):
    """With no --modpoly, Phi_8 (relation 1a) is read from the file that
    NONCONG_MODPOLY_PATH names."""
    path = _phi2_file(tmp_path / "phi2.txt")
    monkeypatch.setenv("NONCONG_MODPOLY_PATH", str(path))
    rc, out, err = run(capsys, "isogeny", "--pair", "1a", "--primes", "7", "--samples", "2")
    assert (rc, out) == (2, "")
    assert err == f"refused: polynomial data file {path}: it holds Phi_2, not Phi_8\n"


def test_modpoly_option_wins_over_the_variable(capsys, monkeypatch, tmp_path):
    path = _phi2_file(tmp_path / "phi2.txt")
    monkeypatch.setenv("NONCONG_MODPOLY_PATH", str(tmp_path / "missing.txt"))
    rc, out, err = run(capsys, "--modpoly", str(path), "isogeny", "--pair", "1a",
                       "--primes", "7", "--samples", "2")
    assert (rc, out) == (2, "")
    assert err == f"refused: polynomial data file {path}: it holds Phi_2, not Phi_8\n"


@pytest.mark.parametrize("text,reason", [
    ("4\n", "Phi_4 data has no nonzero term"),
    ("4\n0 0 0\n", "Phi_4 data has no nonzero term"),
    ("4\n1 0 1\n-1 0 5\n", "Phi_4 data has a negative exponent at (-1, 0)"),
], ids=["no-term", "zero-term", "negative-exponent"])
@pytest.mark.parametrize("mode", ["sampled", "symbolic"])
def test_modpoly_file_without_a_polynomial_refused(capsys, tmp_path, text, reason, mode):
    """A term-less Phi_4 would vanish at every sample, and a negative
    exponent names no power of j: both are refused, not checked."""
    path = tmp_path / "phi4.txt"
    path.write_text(text)
    rc, out, err = run(capsys, "--modpoly", str(path), "isogeny",
                       "--self", "gamma_8^3.2^3.3^2", "--mode", mode)
    assert (rc, out) == (2, "")
    assert err == f"refused: polynomial data file {path}: {reason}\n"


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


def case(number, argv, message):
    """A (command line, expected text) case under the fixed id
    argv<number>-<text>, the id pytest once gave it by position, so adding or
    moving a case renames no other; a new case takes a pytest.param id of
    its own."""
    return pytest.param(argv, message, id=f"argv{number}-{message}")


GROUP_LIST = ", ".join(GROUPS)
MISSING = str(GOLDEN / "nonexist.csv")
README = str(GOLDEN.parent / "README.md")


@pytest.mark.parametrize("argv,message", [
    case(0, ["aswd", "nosuch"], f"unknown group 'nosuch'; catalog has: {GROUP_LIST}"),
    case(1, ["traces", "nosuch"], f"unknown group 'nosuch'; catalog has: {GROUP_LIST}"),
    case(2, ["expand", "nosuch"], f"unknown group 'nosuch'; catalog has: {GROUP_LIST}"),
    case(3, ["expand", "eta", "1:x"],
         "eta quotient '1:x': '1:x' is not a pair scale:exponent like '2:-6'"),
    case(4, ["expand", "gamma_24.6.1^6", "h3"], "form 'h3' is neither h1 nor h2"),
    case(5, ["expand", "E6", "--order", "0"], "--order 0 is not a positive integer"),
    case(6, ["aswd", "gamma_24.6.1^6", "--pn-bound", "3"],
         "--pn-bound 3 is below --pmax 47: each p needs n*p <= pn-bound for n = 1 at least"),
    case(7, ["aswd", "gamma_24.6.1^6", "--pn-bound", "-5"],
         "--pn-bound -5 is below --pmax 47: each p needs n*p <= pn-bound for n = 1 at least"),
    case(8, ["aswd", "gamma_24.6.1^6", "--pn-bound", "0"],
         "--pn-bound 0 is below --pmax 47: each p needs n*p <= pn-bound for n = 1 at least"),
    case(9, ["aswd", "gamma_24.6.1^6", "--pmax", "600"],
         "--pn-bound 500 is below --pmax 600: each p needs n*p <= pn-bound for n = 1 at least"),
    case(10, ["aswd", "gamma_24.6.1^6", "--pmax", "3"], "--pmax 3 selects no prime p >= 5"),
    case(11, ["aswd", "gamma_24.6.1^6", "--pmax", "7000", "--pn-bound", "7000"],
         "--pmax 7000 is above the prime limit 2003"),
    case(12, ["isogeny", "--pair", "4a", "--primes", "5..100000000"],
         "100000000 is above the prime limit 2003"),
    case(13, ["isogeny", "--pair", "4a", "--primes", "5..x"],
         "'5..x' is neither a prime nor a range a..b"),
    case(14, ["isogeny"], "give --pair or --self"),
    case(15, ["expand", "eta", "1:2,1:3"], "eta quotient '1:2,1:3': scale 1 is given twice"),
    case(16, ["expand", "eta", "1:24", "--root", "0"], "--root 0 is not a positive integer"),
    case(17, ["expand", "eta", "1:24", "--root", "-2"], "--root -2 is not a positive integer"),
    case(18, ["isogeny", "--self", "gamma_24.6.1^6", "--samples", "0"],
         "--samples 0 is not a positive integer"),
    case(19, ["isogeny", "--self", "gamma_24.6.1^6", "--samples", "-4"],
         "--samples -4 is not a positive integer"),
    case(20, ["expand", "gamma_24.6.1^6", "h1", "--root", "3"],
         "--root 3 applies to expand eta only"),
    case(21, ["expand", "E6", "--root", "5"], "--root 5 applies to expand eta only"),
    case(22, ["aswd", "gamma_24.6.1^6", "--pmax", "97", "--pn-bound", "20000"],
         "--pn-bound 20000 is above the limit 10000"),
    # the golden paths depend on the checkout, so these ids are fixed
    pytest.param(["aswd", "gamma_24.6.1^6", "--pmax", "7", "--golden", MISSING],
                 f"golden file {MISSING}: No such file or directory", id="aswd-golden-missing"),
    pytest.param(["aswd", "gamma_24.6.1^6", "--pmax", "7", "--golden", README],
                 f"golden file {README}: the first line is not 'p,case,c1,c2'",
                 id="aswd-golden-not-csv"),
    pytest.param(["traces", "--all", "--golden", MISSING],
                 f"golden file {MISSING}: No such file or directory", id="traces-golden-missing"),
    pytest.param(["traces", "--all", "--golden", README],
                 f"golden file {README}: the first line is not "
                 "'group,parameterization,p,tr_p,tr_p2'", id="traces-golden-not-csv"),
    case(27, ["aswd", "gamma_24.6.1^6", "--pmax", "7", "--three-term", "-1"],
         "--three-term -1 is not a positive integer"),
    case(55, ["aswd", "gamma_24.6.1^6", "--pmax", "7", "--three-term", "0"],
         "--three-term 0 is not a positive integer"),
    case(28, ["expand", "gamma_24.6.1^6", "h1", "--order", "2001"],
         "--order 2001 is above the limit 2000"),
    case(29, ["expand", "eta", "1:24", "--order", "100000"],
         "--order 100000 is above the limit 2000"),
    case(30, ["expand", "eta", "1:24", "--root", "3", "--order", "100000"],
         "--order 100000 is above the limit 2000"),
    case(31, ["expand", "E6", "--order", "100000"], "--order 100000 is above the limit 2000"),
    case(32, ["expand", "eta", "1:24", "--root", "25"], "--root 25 is above the limit 24"),
    case(33, ["isogeny", "--pair", "4a", "--primes", "2"],
         "--primes selects 2; the isogeny check needs p >= 5"),
    case(34, ["isogeny", "--self", "gamma_24.6.1^6", "--primes", "2"],
         "--primes selects 2; the isogeny check needs p >= 5"),
    case(35, ["isogeny", "--pair", "4a", "--primes", "5"],
         "50 samples asked, but only 2 points t = 1..4 can be sampled mod p = 5"),
    case(36, ["isogeny", "--self", "gamma_24.6.1^6", "--primes", "5"],
         "50 samples asked, but only 2 points t = 1..4 can be sampled mod p = 5"),
    case(37, ["traces", "gamma_24.3.2^3.1^3B", "--primes", "5..13"],
         "gamma_24.3.2^3.1^3B carries no surface parameterization"),
    # a_1 = 0 by construction, so n = 1, the only n <= pn-bound/p, tests nothing
    case(38, ["aswd", "gamma_24.3.2^3.1^3B", "--pmax", "7", "--pn-bound", "7"],
         "--pn-bound 7 is too small for gamma_24.3.2^3.1^3B: "
         "insufficient data: no usable ratio indices for p=5"),
    case(39, ["aswd", "gamma_24.3.2^3.1^3B", "--pmax", "7", "--pn-bound", "12"],
         "--pn-bound 12 is too small for gamma_24.3.2^3.1^3B: "
         "insufficient data: no usable ratio indices for p=7"),
    case(40, ["isogeny", "--self", "gamma_24.3.2^3.1^3B"],
         "gamma_24.3.2^3.1^3B carries no involution data"),
    case(41, ["isogeny", "--pair", "5a"],
         "--pair '5a' is not a known relation; known: 1a, 2a, 3a, 4a"),
    case(42, ["traces", "--all", "--primes", "23..5,73"],
         "range '23..5' runs downward; write 5..23"),
    case(43, ["isogeny", "--pair", "4a", "--primes", "103..101"],
         "range '103..101' runs downward; write 101..103"),
    case(44, ["expand", "E6", "h1", "--order", "3"], "expand E6 takes no form, not 'h1'"),
    case(45, ["traces", "--all", "--primes", "24..28"], "'24..28' selects no primes"),
    case(46, ["--modpoly", "/nonexistent", "catalog"], "--modpoly applies to isogeny only"),
    case(47, ["--modpoly", "/nonexistent", "dim", "--all"], "--modpoly applies to isogeny only"),
    case(48, ["isogeny", "--pair", "4a", "--self", "gamma_24.6.1^6", "--primes", "7",
              "--samples", "2"], "give --pair or --self, not both"),
    case(49, ["isogeny", "--self", "gamma_24.6.1^6", "--mode", "symbolic", "--samples", "1000"],
         "--samples applies to --mode sampled only"),
    case(50, ["isogeny", "--self", "gamma_24.6.1^6", "--mode", "symbolic", "--primes", "7"],
         "--primes applies to --mode sampled only"),
    case(51, ["dim", "--group", "gamma_24.6.1^6", "--all"], "give a group or --all, not both"),
    case(52, ["noncongruence", "--all", "--group", "gamma_24.6.1^6"],
         "give a group or --all, not both"),
    case(53, ["--format", "csv", "traces", "gamma_24.6.1^6", "--all", "--primes", "7"],
         "give a group or --all, not both"),
    case(54, ["traces", "all", "--primes", "7"],
         f"unknown group 'all'; catalog has: {GROUP_LIST}"),
])
def test_input_refused_with_one_line(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"refused: {message}\n"


# (format, command line, the formats the command writes)
FORMAT_REFUSALS = [
    ("json", ["expand", "E6"], "human and csv"),
    ("json", ["dim", "--all"], "human"),
    ("csv", ["dim", "--all"], "human"),
    ("json", ["noncongruence", "--all"], "human"),
    ("csv", ["noncongruence", "--all"], "human"),
    ("json", ["catalog"], "human"),
    ("csv", ["catalog"], "human"),
    ("json", ["isogeny", "--pair", "4a"], "human"),
    ("csv", ["isogeny", "--pair", "4a"], "human"),
]


@pytest.mark.parametrize("fmt,argv,writes", FORMAT_REFUSALS,
                         ids=[f"{fmt}-{argv[0]}" for fmt, argv, _ in FORMAT_REFUSALS])
def test_format_the_command_does_not_write_is_refused(capsys, fmt, argv, writes):
    rc, out, err = run(capsys, "--format", fmt, *argv)
    assert (rc, out) == (2, "")
    assert err == (f"refused: --format {fmt} does not apply to {argv[0]}, "
                   f"which writes {writes} output\n")


@pytest.mark.parametrize("argv,row", [
    case(0, ["aswd", "gamma_24.6.1^6", "--pmax", "7"], "7,case1,47"),
    case(1, ["traces", "--all"], "gamma_24.6.1^6,E8(r^3),5,0,x"),
])
def test_malformed_golden_row_refused(capsys, tmp_path, argv, row):
    golden = GOLDEN / ("traces.csv" if argv[0] == "traces" else "ratios_gamma_24.6.1-6.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text(golden.read_text().splitlines()[0] + "\n" + row + "\n")
    rc, out, err = run(capsys, *argv, "--golden", str(bad))
    assert (rc, out) == (2, "")
    assert err.startswith(f"refused: golden file {bad}, line 2: {row!r} is not a row of")


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


def test_aswd_failed_three_term_row_exits_one(capsys, monkeypatch):
    original = congruence._three_term_mod_p2
    failed = []

    def one_failing_row(values, c, p, n_bound):
        report = original(values, c, p, n_bound)
        if p == 7 and not failed:       # the "a" rows of p = 7 come first
            failed.append(3)
            report.failures.append(3)
        return report

    monkeypatch.setattr(congruence, "_three_term_mod_p2", one_failing_row)
    rc, _, err = run(capsys, "aswd", "gamma_24.6.1^6", "--pmax", "13", "--three-term", "10")
    assert rc == 1
    assert err == '{"threeTermFailures": [[7, "a", 3]]}\n'
