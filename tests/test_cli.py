"""End-to-end tests for the command-line interface.

Each test drives main() with an argv list and checks the exit code plus
the captured output, the same way a shell user would see it.
"""

import sys
import time
from pathlib import Path

import pytest

from polydiag import __version__, certificates, cli, diagonal, positivity
from polydiag.arith import parse_polynomial
from polydiag.certificates import MAX_GENERATORS, SosMatrixCertificate, format_sos_certificate
from polydiag.cli import main
from polydiag.polymat import PolyMatrix

from helpers import DIAG_BUNDLE, DIAG_SINGLE, EQUIV, count_calls

SUBJECT = "2 2 1\nt1\n1\n1\nt1\n"
VANISHING_MINORS = "3 3 1\n1\n-1\n1\n-1\n1\n1\n1\n1\n1\n"
TRIDIAG = "3 3 1\nt1\n1\n0\n1\nt1\n1\n0\n1\nt1\n"
IDENTITY2 = "2 2 1\n1\n0\n0\n1\n"
GOLDEN = Path(__file__).parent / "golden"


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- diagonalize ---------------------------------------------------------------


def test_diagonalize_default_single(tmp_path, capsys):
    assert main(["diagonalize", put(tmp_path, "a.mat", SUBJECT)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"# generated-by polydiag {__version__}\n")
    assert "kind diag" in out
    assert "t1^3 - t1" in out


def test_diagonalize_standard_mode(tmp_path, capsys):
    path = put(tmp_path, "a.mat", "2 2 1\n1\nt1\nt1\nt1^2 + 1\n")
    assert main(["diagonalize", "--mode", "standard", path]) == 0
    out = capsys.readouterr().out
    assert "kind diag" in out


def test_diagonalize_bundle_mode(tmp_path, capsys):
    assert main(["diagonalize", "--mode", "bundle", put(tmp_path, "a.mat", SUBJECT)]) == 0
    out = capsys.readouterr().out
    assert "kind bundle" in out
    assert "branches 3" in out


def test_diagonalize_out_file_matches_stdout(tmp_path, capsys):
    path = put(tmp_path, "a.mat", SUBJECT)
    out_path = tmp_path / "cert.txt"
    assert main(["diagonalize", path, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["diagonalize", path]) == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_diagonalize_byte_deterministic(tmp_path):
    path = put(tmp_path, "a.mat", TRIDIAG)
    first = tmp_path / "one.txt"
    second = tmp_path / "two.txt"
    assert main(["diagonalize", "--mode", "bundle", path, "--out", str(first)]) == 0
    assert main(["diagonalize", "--mode", "bundle", path, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_diagonalize_standard_rejects_vanishing_minor(tmp_path, capsys):
    path = put(tmp_path, "a.mat", VANISHING_MINORS)
    assert main(["diagonalize", "--mode", "standard", path]) == 2
    assert "M_2" in capsys.readouterr().err
    # the single-pivot-path fallback still succeeds on the same matrix
    assert main(["diagonalize", "--mode", "single", path]) == 0


def test_diagonalize_zero_matrix(tmp_path, capsys):
    path = put(tmp_path, "z.mat", "2 2 1\n0\n0\n0\n0\n")
    assert main(["diagonalize", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_diagonalize_asymmetric(tmp_path, capsys):
    path = put(tmp_path, "a.mat", "2 2 1\nt1\n1\n0\nt1\n")
    assert main(["diagonalize", path]) == 2


def test_diagonalize_branch_cap(tmp_path, capsys):
    path = put(tmp_path, "a.mat", TRIDIAG)
    assert main(["diagonalize", "--mode", "bundle", "--cap-branches", "5", path]) == 2
    capsys.readouterr()
    assert main(["diagonalize", "--mode", "bundle", "--cap-branches", "0", path]) == 1
    assert "--cap-branches" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------


def test_verify_diag_ok(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", mat, "--out", str(cert)]) == 0
    assert main(["verify", mat, str(cert)]) == 0
    assert capsys.readouterr().out == "ok: diag certificate verifies\n"


def test_verify_bundle_ok(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", "--mode", "bundle", mat, "--out", str(cert)]) == 0
    assert main(["verify", mat, str(cert)]) == 0
    assert capsys.readouterr().out == "ok: bundle certificate verifies\n"


def test_verify_sos_ok(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", "1 1 1\nt1^2 + 1\n")
    q1 = PolyMatrix.from_rows([[parse_polynomial("1", 1)]])
    q2 = PolyMatrix.from_rows([[parse_polynomial("t1", 1)]])
    sos = SosMatrixCertificate(parse_polynomial("1", 1), (q1, q2))
    cert = put(tmp_path, "cert.txt", format_sos_certificate(sos))
    assert main(["verify", mat, cert]) == 0
    assert capsys.readouterr().out == "ok: sos certificate verifies\n"


def test_verify_tampered_cert(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", mat, "--out", str(cert)]) == 0
    cert.write_text(cert.read_text().replace("t1^3 - t1", "t1^3 + t1"))
    assert main(["verify", mat, str(cert)]) == 3
    out = capsys.readouterr().out
    assert "identity failed: D = X_minus*A*X_minus^t" in out


def test_verify_wrong_subject(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    other = put(tmp_path, "b.mat", "2 2 1\nt1\n0\n0\nt1\n")
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", mat, "--out", str(cert)]) == 0
    assert main(["verify", other, str(cert)]) == 3
    assert "identity failed:" in capsys.readouterr().out


def test_verify_dimension_mismatch(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    big = put(tmp_path, "b.mat", TRIDIAG)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", mat, "--out", str(cert)]) == 0
    assert main(["verify", big, str(cert)]) == 1
    assert "do not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cert",
    ["diag-single.out", "diag-bundle.out", "equiv.cert", "sos.cert", "membership.cert"],
)
def test_verify_size_mismatch_every_kind(cert, monkeypatch, capsys):
    # a 3x3 subject against a certificate of dimension 2
    monkeypatch.chdir(GOLDEN)
    assert main(["verify", "a3.mat", cert]) == 1
    err = capsys.readouterr().err
    assert err == "error: certificate dimensions do not match the subject matrix\n"


def test_verify_equiv_asymmetric_second_subject(tmp_path, capsys):
    # a fault in the certificate file is a parse error (exit 1), not a
    # precondition of the subject (exit 2)
    old = "[matrix subject_b]\n2 2 1\nt1\n0\n0\n"
    assert old in EQUIV
    cert = put(tmp_path, "equiv.cert", EQUIV.replace(old, "[matrix subject_b]\n2 2 1\nt1\n0\n1\n"))
    assert main(["verify", str(GOLDEN / "a.mat"), cert]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = f"parse error: {cert}: section [matrix subject_b]: second subject is not symmetric\n"
    assert captured.err == err


BIG = "9" * 5000


@pytest.mark.parametrize(
    "text,where",
    [
        (f"1 1 1\n{BIG}\n", "line 2: column 1"),
        (f"1 1 1\nt1^{BIG}\n", "line 2: column 4"),
        (f"1 1 1\nt{BIG}\n", "line 2: column 1"),
    ],
    ids=["coefficient", "exponent", "variable"],
)
def test_matrix_file_oversized_integer(tmp_path, capsys, text, where):
    path = put(tmp_path, "big.mat", text)
    assert main(["psd-grid", path]) == 1
    limit = sys.get_int_max_str_digits()
    err = capsys.readouterr().err
    assert err == f"parse error: {path}: {where}: integer with more than {limit} digits\n"


@pytest.mark.parametrize(
    "cert,old,new,where",
    [
        (DIAG_SINGLE, "[poly w]\nt1^2\n", f"[poly w]\n{BIG}*t1^2\n", "line 25: column 1"),
        (DIAG_BUNDLE, "1 1 1/1\n", f"1 1 1/{BIG}\n", "line 28"),
    ],
    ids=["poly", "trace-scale"],
)
def test_certificate_oversized_integer(tmp_path, capsys, cert, old, new, where):
    assert old in cert
    path = put(tmp_path, "big.cert", cert.replace(old, new, 1))
    assert main(["verify", str(GOLDEN / "a.mat"), path]) == 1
    limit = sys.get_int_max_str_digits()
    err = capsys.readouterr().err
    assert err == f"parse error: {path}: {where}: integer with more than {limit} digits\n"


def test_verify_garbage_certificate(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = put(tmp_path, "cert.txt", "kind diag\nnot a certificate\n")
    assert main(["verify", mat, cert]) == 1
    assert capsys.readouterr().err.startswith("parse error:")


def test_matrix_parse_error_names_file(tmp_path, capsys):
    path = put(tmp_path, "bad.mat", "2 2\nt1\n")
    assert main(["diagonalize", path]) == 1
    assert "bad.mat" in capsys.readouterr().err


@pytest.mark.parametrize("argv,position", [
    (["diagonalize", "a.mat"], 1),
    (["psd-grid", "a.mat"], 1),
    (["verify", "a.mat", "diag-single.out"], 1),
    (["verify", "a.mat", "diag-single.out"], 2),
])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, argv, position):
    bad = tmp_path / "bad.txt"
    bad.write_bytes((GOLDEN / argv[position]).read_bytes().replace(b"t1", b"t1\xff", 1))
    argv = [argv[0]] + [str(bad) if k == position else str(GOLDEN / f)
                        for k, f in enumerate(argv[1:], start=1)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {bad}: 'utf-8' codec can't decode byte 0xff")


def test_missing_file(capsys):
    assert main(["diagonalize", "/nonexistent/a.mat"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# -- psd-grid ------------------------------------------------------------------


def test_psd_grid_pass(tmp_path, capsys):
    path = put(tmp_path, "i.mat", IDENTITY2)
    assert main(["psd-grid", path]) == 0
    assert capsys.readouterr().out == "points=21 psd=21 non_psd=0\n"


def test_psd_grid_fail_lists_points(tmp_path, capsys):
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    args = ["psd-grid", path, "--grid-low=-1", "--grid-high", "1", "--grid-count", "3"]
    assert main(args) == 4
    assert capsys.readouterr().out == "(-1); psd=0\npoints=3 psd=2 non_psd=1\n"


def test_psd_grid_fractional_bounds(tmp_path, capsys):
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    for low, high in (("1/2", "3/2"), ("0.5", "1.5")):
        args = ["psd-grid", path, f"--grid-low={low}", "--grid-high", high, "--grid-count", "3"]
        assert main(args) == 0
        assert "points=3 psd=3 non_psd=0" in capsys.readouterr().out


def test_psd_grid_per_axis_counts(tmp_path, capsys):
    path = put(tmp_path, "s.mat", "1 1 2\nt1^2 + t2^2\n")
    args = ["psd-grid", path, "--grid-count", "3", "--grid-count", "5"]
    assert main(args) == 0
    assert "points=15 psd=15 non_psd=0" in capsys.readouterr().out


def test_psd_grid_flag_validation(tmp_path, capsys):
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    assert main(["psd-grid", path, "--grid-count", "0"]) == 1
    assert "--grid-count" in capsys.readouterr().err
    assert main(["psd-grid", path, "--grid-low", "5", "--grid-high", "1"]) == 1
    assert "exceeds" in capsys.readouterr().err
    assert main(["psd-grid", path, "--grid-low", "abc"]) == 1
    assert "--grid-low" in capsys.readouterr().err
    bivar = put(tmp_path, "s.mat", "1 1 2\nt1 + t2\n")
    assert main(["psd-grid", bivar, "--grid-count", "3", "--grid-count", "3",
                 "--grid-count", "3"]) == 1
    assert "expected once or 2 times" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["psd-grid", "equiv-check"])
def test_negative_grid_bound_after_a_space(tmp_path, capsys, command):
    # argparse reads a word such as -1/2 or -1. as a flag; both forms of a
    # bound, and argparse's abbreviations of the flags, give one grid
    mat = put(tmp_path, "a.mat", SUBJECT)
    files = [mat] + ([put(tmp_path, "b.cert", DIAG_BUNDLE)] if command == "equiv-check" else [])
    outputs = set()
    for bounds in (
        ["--grid-low=-1/2", "--grid-high=-1/4"],
        ["--grid-low", "-1/2", "--grid-high", "-1/4"],
        ["--grid-l", "-2/4", "--grid-hi", "-0.25"],
        ["--grid-high", "-1/4", "--grid-lo", "-1/2"],
    ):
        code = main([command, *files, *bounds, "--grid-count", "3"])
        outputs.add((code, capsys.readouterr()))
    assert len(outputs) == 1
    (code, (out, err)), = outputs
    assert err == ""
    if command == "psd-grid":
        assert (code, out) == (4, "(-1/2); psd=0\n(-3/8); psd=0\n(-1/4); psd=0\n"
                                  "points=3 psd=0 non_psd=3\n")
    else:
        assert (code, out) == (0, "points=3 agree=3 disagree=0\n")
    assert main([command, *files, "--grid-low", "-1.", "--grid-high", "-1/2"]) == code
    assert main([command, *files, "--grid-low", "-1/0"]) == 1
    assert capsys.readouterr().err == (
        "error: bad --grid-low value '-1/0', expected a rational like -10 or 1/2\n"
    )
    # a word after -- stays positional
    assert main([command, *files, "--", "--grid-low", "-1/2"]) == 1
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --grid-low -1/2\n")


@pytest.mark.parametrize("text", ["1e999999999", "-1E5", "2.5e-1"])
def test_grid_bound_exponent_refused_fast(tmp_path, capsys, text):
    # Fraction would compute 10^exp first; 1e999999999 needs a 415 MB integer
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    start = time.perf_counter()
    assert main(["psd-grid", path, f"--grid-low={text}"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: bad --grid-low value {text!r}, expected a rational like -10 or 1/2\n"


@pytest.mark.parametrize(
    "flag,text", [("--grid-low", "-１"), ("--grid-high", "1_0/3"), ("--grid-high", "١"),
                  ("--grid-low", " -1"), ("--grid-high", "1/2_0")]
)
def test_grid_bound_ascii_only(tmp_path, capsys, flag, text):
    # Fraction() reads other scripts' digits, '_' separators and whitespace
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    assert main(["psd-grid", path, f"{flag}={text}", "--grid-count", "3"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad {flag} value {text!r}, expected a rational like -10 or 1/2\n"


@pytest.mark.parametrize("text", ["1_0", "３", "١٠", " 3"])
def test_integer_flags_ascii_only(tmp_path, capsys, text):
    # int() reads other scripts' digits, '_' separators and whitespace
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    assert main(["psd-grid", path, f"--grid-count={text}"]) == 1
    assert f"argument --grid-count: invalid int value: {text!r}" in capsys.readouterr().err
    assert main(["diagonalize", "--mode", "bundle", f"--cap-branches={text}", path]) == 1
    assert f"argument --cap-branches: invalid int value: {text!r}" in capsys.readouterr().err


def test_psd_grid_rejects_rectangular(tmp_path, capsys):
    path = put(tmp_path, "r.mat", "1 2 1\nt1\n1\n")
    assert main(["psd-grid", path]) == 1
    assert "square" in capsys.readouterr().err


def test_hostile_grid_refused_fast(tmp_path, capsys):
    # t1^4096 at 800-digit coordinates: about 10^7 bits per point, which took
    # tens of seconds to evaluate on 20 points before any bound was checked
    path = put(tmp_path, "big.mat", "1 1 1\nt1^4096\n")
    cert = str(tmp_path / "big.cert")
    assert main(["diagonalize", "--mode", "bundle", path, "--out", cert]) == 0
    grid = [f"--grid-low=-1/{'9' * 800}", "--grid-high=1", "--grid-count=20"]
    for argv in (["psd-grid", path], ["equiv-check", path, cert]):
        start = time.perf_counter()
        assert main(argv + grid) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "",
            "error: grid evaluation needs about 218071060 integer bits "
            "(10903553 per point), exceeding the bound 16777216\n",
        )


def test_one_point_hostile_grid_refused_fast(tmp_path, capsys):
    # t1^4096 + 1 at 3/10^1204, a coordinate of about 4000 bits: one point
    # needs about 1.6 * 10^7 bits, under the grid's bound, and took seconds
    path = put(tmp_path, "big.mat", "1 1 1\nt1^4096 + 1\n")
    start = time.perf_counter()
    assert main(["psd-grid", path, f"--grid-low=3/1{'0' * 1204}", "--grid-count=1"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == (
        "",
        "error: one grid point needs about 16384001 integer bits, exceeding the bound 4194304\n",
    )


def test_matrix_file_parse_is_looked_up_per_call(tmp_path, monkeypatch, capsys):
    # a wrapper put on cli.parse_matrix, as a tracer puts one, sees the parse
    calls = count_calls(monkeypatch, "parse_matrix", (cli,))
    assert main(["psd-grid", put(tmp_path, "i.mat", IDENTITY2)]) == 0
    assert capsys.readouterr().out == "points=21 psd=21 non_psd=0\n"
    assert len(calls) == 1


# -- equiv-check ---------------------------------------------------------------


def test_equiv_check_agrees(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", "--mode", "bundle", mat, "--out", str(cert)]) == 0
    assert main(["equiv-check", mat, str(cert)]) == 0
    assert capsys.readouterr().out == "points=21 agree=21 disagree=0\n"


def test_equiv_check_custom_grid(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", "--mode", "bundle", mat, "--out", str(cert)]) == 0
    assert main(["equiv-check", mat, str(cert), "--grid-count", "5"]) == 0
    assert capsys.readouterr().out == "points=5 agree=5 disagree=0\n"


def test_equiv_check_reports_disagreements(monkeypatch, capsys):
    # an oracle that calls every point non-PSD disagrees where the bundle is >= 0
    monkeypatch.setattr(positivity, "_psd_int", lambda rows: False)
    argv = ["equiv-check", str(GOLDEN / "a.mat"), str(GOLDEN / "diag-bundle.out"),
            "--grid-low=-2", "--grid-high=2", "--grid-count=5"]
    assert main(argv) == 5
    assert capsys.readouterr().out == (
        "(1); oracle=0; bundle=1\n(2); oracle=0; bundle=1\npoints=5 agree=3 disagree=2\n"
    )


def test_equiv_check_rejects_foreign_bundle(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    other = put(tmp_path, "b.mat", "2 2 1\nt1\n0\n0\nt1\n")
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", "--mode", "bundle", other, "--out", str(cert)]) == 0
    assert main(["equiv-check", mat, str(cert)]) == 3
    assert "identity failed:" in capsys.readouterr().out


def test_impossible_bundle_trace_refused(tmp_path, capsys):
    # four pivots on a 2 x 2 subject, the first outside the matrix
    bad = "[trace 1]\n1 99 2/1\n5 7 2/1\n8 8 1/1\n9 9 1/1\n"
    cert = put(tmp_path, "a.bundle", DIAG_BUNDLE.replace("[trace 1]\n1 1 1/1\n", bad))
    mat = put(tmp_path, "a.mat", SUBJECT)
    for argv in (["verify", mat, cert], ["equiv-check", mat, cert]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"parse error: {cert}: section [trace 1]: 4 pivots for dim 2, at most 1 fit\n"
        )


def test_equiv_check_needs_bundle(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", mat, "--out", str(cert)]) == 0
    assert main(["equiv-check", mat, str(cert)]) == 1
    assert "needs a bundle certificate" in capsys.readouterr().err


# -- gens ----------------------------------------------------------------------


def test_gens_listing(tmp_path, capsys):
    g1 = put(tmp_path, "g1.mat", "1 1 1\nt1\n")
    g2 = put(tmp_path, "g2.mat", "1 1 1\n-t1 + 1\n")
    assert main(["gens", g1, g2]) == 0
    out = capsys.readouterr().out
    assert out == (
        f"# generated-by polydiag {__version__}\n"
        "# indexset -\n1 1 1\n1\n"
        "# indexset 1\n1 1 1\nt1\n"
        "# indexset 2\n1 1 1\n-t1 + 1\n"
        "# indexset 1 2\n1 1 1\n-t1^2 + t1\n"
    )


def test_gens_deterministic(tmp_path):
    g1 = put(tmp_path, "g1.mat", "2 2 1\nt1\n0\n0\n1\n")
    g2 = put(tmp_path, "g2.mat", "2 2 1\n1\n0\n0\nt1\n")
    first = tmp_path / "one.txt"
    second = tmp_path / "two.txt"
    assert main(["gens", g1, g2, "--out", str(first)]) == 0
    assert main(["gens", g1, g2, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gens_refuses_too_many_generators_fast(tmp_path, capsys):
    paths = [put(tmp_path, f"g{k}.mat", "1 1 1\n1\n") for k in range(MAX_GENERATORS + 1)]
    start = time.perf_counter()
    assert main(["gens", *paths]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {MAX_GENERATORS + 1} generators exceed the cap of {MAX_GENERATORS} "
        f"({2**MAX_GENERATORS} ascending products)\n"
    )


def test_verify_refuses_too_many_membership_generators_fast(tmp_path, capsys):
    # one term whose ascending product chains all r generators
    r = 3000
    gens = "".join(f"[matrix generator_{k}]\n1 1 1\n1 + t1\n" for k in range(1, r + 1))
    text = (
        f"# generated-by polydiag {__version__}\n[meta]\nkind membership\ndim 1\nnvars 1\n"
        f"generators {r}\nterms 1\n{gens}[indexset 1]\n{' '.join(map(str, range(1, r + 1)))}\n"
        "[matrix coeff_1_1]\n1 1 1\n1\n"
    )
    argv = ["verify", put(tmp_path, "one.mat", "1 1 1\n1\n"), put(tmp_path, "many.cert", text)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {r} generators exceed the cap of {MAX_GENERATORS} "
        f"({2**MAX_GENERATORS} ascending products)\n"
    )


# -- global flags ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "diagonalize" in capsys.readouterr().out
    assert main(["diagonalize", "--help"]) == 0


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    path = put(tmp_path, "a.mat", SUBJECT)
    assert main(["diagonalize", path, "--mode", "sideways"]) == 1
    assert main(["diagonalize"]) == 1


# Each argv gives the same namespace, or the same exit status, stdout and
# stderr, through cli._parse_args as through the full parser.  No file is
# read: parsing stops at the namespace.
DISPATCH_ARGV = [
    [],
    ["no-such-command"],
    ["-x"],
    ["-h"],
    ["--help"],
    ["--version"],
    ["--version", "verify"],
    ["verify", "a.mat", "c.cert"],
    ["verify", "a.mat"],
    ["verify"],
    ["verify", "a.mat", "c.cert", "extra"],
    ["verify", "a.mat", "c.cert", "-x"],
    ["verify", "a.mat", "c.cert", "--version"],
    ["verify", "a.mat", "c.cert", "--v"],
    ["verify", "-h"],
    ["verify", "--he"],
    ["verify", "--", "a.mat", "c.cert"],
    ["verify", "a.mat", "--", "c.cert"],
    ["verify", "-1", "c.cert"],
    ["diagonalize", "--mode=bundle", "a.mat"],
    ["diagonalize", "--mode", "sideways", "a.mat"],
    ["diagonalize", "a.mat", "--m", "standard", "--out", "o.cert", "--cap", "5"],
    ["diagonalize", "a.mat", "--cap-branches", "x"],
    ["diagonalize", "a.mat", "--cap-branches"],
    ["psd-grid", "a.mat", "--grid-c", "3"],
    ["psd-grid", "a.mat", "--grid-", "3"],
    ["psd-grid", "a.mat", "--grid-low", "-1", "--grid-high=-0.5", "--grid-count=3"],
    ["psd-grid", "a.mat", "--grid-low", "1/2", "--grid-low", "abc"],
    ["psd-grid", "a.mat", "--grid-low=-1/2", "b.mat"],
    ["psd-grid", "a.mat", "--grid-count", "-3"],
    ["psd-grid", "a.mat", "--grid-high"],
    ["equiv-check", "a.mat", "c.cert", "--grid-low", "0", "--grid-high", "1"],
    ["equiv-check", "a.mat"],
    ["gens", "a.mat", "b.mat", "--out", "o.txt"],
    ["gens"],
    ["gens", "--out", "o.txt"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "empty")
def test_dispatch_matches_full_parser(argv, capsys):
    direct = _parse_outcome(cli._parse_args, list(argv), capsys)
    assert direct == _parse_outcome(cli._PARSER.parse_args, list(argv), capsys)


def test_subcommand_argv_skips_the_full_parser(tmp_path, monkeypatch, capsys):
    calls = count_calls(monkeypatch, "parse_args", (cli._PARSER,))
    assert main(["psd-grid", put(tmp_path, "i.mat", IDENTITY2), "--grid-c", "3"]) == 0
    assert capsys.readouterr().out == "points=3 psd=3 non_psd=0\n"
    assert calls == []
    assert main(["psd-grid"]) == 1
    assert calls == []
    assert main(["psd-grid", "i.mat", "extra"]) == 1  # the full parser reports it
    assert len(calls) == 1
    assert capsys.readouterr().err.endswith("polydiag: error: unrecognized arguments: extra\n")


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    path = put(tmp_path, "t.mat", "1 1 1\nt1\n")
    argv = ["psd-grid", path, "--grid-low=-1", "--grid-high", "1", "--grid-count", "3"]
    assert main(argv) == 4
    given = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["polydiag", *argv])
    assert main() == 4
    assert capsys.readouterr() == given
    monkeypatch.setattr(sys, "argv", ["polydiag", "--version"])
    assert main() == 0
    assert capsys.readouterr().out == f"polydiag {__version__}\n"


# -- verification counts ---------------------------------------------------------


def test_bundle_checked_once_per_branch(tmp_path, monkeypatch, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = tmp_path / "a.bundle"
    modules = (certificates, diagonal, positivity, cli)
    checks = count_calls(monkeypatch, "diag_certificate_failures", modules)
    assert main(["diagonalize", "--mode", "bundle", mat, "--out", str(cert)]) == 0
    assert len(checks) == 3  # the README matrix has three branches
    checks.clear()
    assert main(["equiv-check", mat, str(cert)]) == 0
    assert len(checks) == 3


def test_producers_skip_checked_block_step(tmp_path, monkeypatch):
    steps = count_calls(monkeypatch, "block_step", (diagonal,))
    mat = put(tmp_path, "a.mat", TRIDIAG)
    for mode in ("standard", "single", "bundle"):
        assert main(["diagonalize", "--mode", mode, mat]) == 0
    assert steps == []


def test_standard_form_eliminates_once(tmp_path, monkeypatch):
    names = ("_eliminate", "determinant", "minor", "leading_principal_minor")
    calls = {name: count_calls(monkeypatch, name, (PolyMatrix,)) for name in names}
    steps = []
    step = diagonal._bareiss_step

    def counted_step(m, k, *args, symmetric=False):
        steps.append((k, symmetric))
        return step(m, k, *args, symmetric=symmetric)

    monkeypatch.setattr(diagonal, "_bareiss_step", counted_step)
    # one symmetric step per pivot level: full rank, then a vanishing M_2
    # (exit 2), on integer images and then on Polynomials
    for cap in (diagonal._WALK_BITS_CAP, 0):
        monkeypatch.setattr(diagonal, "_WALK_BITS_CAP", cap)
        for text, code, levels in ((TRIDIAG, 0, 2), (VANISHING_MINORS, 2, 1)):
            for counted in (*calls.values(), steps):
                counted.clear()
            assert main(["diagonalize", "--mode", "standard", put(tmp_path, "a.mat", text)]) == code
            assert steps == [(k, True) for k in range(levels)]
            assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 0)


def test_huge_nvars_refused_fast(tmp_path, capsys):
    huge = put(tmp_path, "huge.mat", "1 1 100000\n1 + t1\n")
    subject = str(GOLDEN / "a.mat")
    cert_text = (GOLDEN / "diag-single.out").read_text()
    cert = put(tmp_path, "huge.cert", cert_text.replace("nvars 1\n", "nvars 100000\n"))
    matrix_error = f"parse error: {huge}: line 1: nvars 100000 exceeds the maximum 64\n"
    cert_error = f"parse error: {cert}: line 5: meta key 'nvars' must be <= 64, got 100000\n"
    for argv, err in (
        (["diagonalize", huge], matrix_error),
        (["psd-grid", huge], matrix_error),
        (["verify", huge, str(GOLDEN / "diag-single.out")], matrix_error),
        (["verify", subject, cert], cert_error),
    ):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == err
