"""End-to-end tests for the command-line interface.

Each test drives main() with an argv list and checks the exit code plus
the captured output, the same way a shell user would see it.
"""

from polydiag import __version__, certificates, cli, diagonal, positivity
from polydiag.arith import parse_polynomial
from polydiag.certificates import SosMatrixCertificate, format_sos_certificate
from polydiag.cli import main
from polydiag.polymat import PolyMatrix

SUBJECT = "2 2 1\nt1\n1\n1\nt1\n"
VANISHING_MINORS = "3 3 1\n1\n-1\n1\n-1\n1\n1\n1\n1\n1\n"
TRIDIAG = "3 3 1\nt1\n1\n0\n1\nt1\n1\n0\n1\nt1\n"
IDENTITY2 = "2 2 1\n1\n0\n0\n1\n"


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


def test_verify_garbage_certificate(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    cert = put(tmp_path, "cert.txt", "kind diag\nnot a certificate\n")
    assert main(["verify", mat, cert]) == 1
    assert capsys.readouterr().err.startswith("parse error:")


def test_matrix_parse_error_names_file(tmp_path, capsys):
    path = put(tmp_path, "bad.mat", "2 2\nt1\n")
    assert main(["diagonalize", path]) == 1
    assert "bad.mat" in capsys.readouterr().err


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
    args = ["psd-grid", path, "--grid-low=1/2", "--grid-high", "3/2", "--grid-count", "3"]
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


def test_psd_grid_rejects_rectangular(tmp_path, capsys):
    path = put(tmp_path, "r.mat", "1 2 1\nt1\n1\n")
    assert main(["psd-grid", path]) == 1
    assert "square" in capsys.readouterr().err


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


def test_equiv_check_rejects_foreign_bundle(tmp_path, capsys):
    mat = put(tmp_path, "a.mat", SUBJECT)
    other = put(tmp_path, "b.mat", "2 2 1\nt1\n0\n0\nt1\n")
    cert = tmp_path / "cert.txt"
    assert main(["diagonalize", "--mode", "bundle", other, "--out", str(cert)]) == 0
    assert main(["equiv-check", mat, str(cert)]) == 3
    assert "identity failed:" in capsys.readouterr().out


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


# -- verification counts ---------------------------------------------------------


def count_calls(monkeypatch, name, modules):
    """Count calls to the function ``name`` wherever ``modules`` look it up."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


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
