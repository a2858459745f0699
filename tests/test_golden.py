"""Byte-exact CLI outputs pinned as golden files.

Each case runs one command through cli.main inside tests/golden/ and
compares the exit code and the exact stdout bytes with ``<case>.out``.
The cases are the README's command-line examples plus two bundle/single
path corner cases.  ``verify`` and ``equiv-check`` read the certificates
that the diagonalize cases pin, so those files double as inputs.

A golden file changes only when the output is meant to change; regenerate
one with, e.g.

    cd tests/golden && PYTHONPATH=../../src python -m polydiag.cli \\
        diagonalize a.mat > diag-single.out
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polydiag.arith import parse_polynomial
from polydiag.certificates import (
    EquivCertificatePackage,
    MembershipCertificatePackage,
    ModuleMembershipCertificate,
    SosMatrixCertificate,
    format_bundle_certificate,
    format_diag_certificate,
    format_equiv_certificate,
    format_membership_certificate,
    format_sos_certificate,
    parse_certificate,
    witness_from_diag_certificate,
)
from polydiag import diagonal
from polydiag.cli import main
from polydiag.diagonal import (
    diagonalization_bundle,
    single_path_diagonalize,
    standard_form_diagonalize,
)
from polydiag.errors import BundleTooLarge, ParseError
from polydiag.polymat import PolyMatrix, format_matrix, parse_matrix
from polydiag.positivity import (
    GridSpec,
    RationalMatrix,
    _grid_sweep,
    check_bundle_equivalence,
    psd_on_grid,
    psd_rational,
)

from helpers import (
    rand_fraction,
    rand_matrix,
    rand_poly,
    rand_rational_symmetric,
    rand_symmetric,
    rand_symmetric_total_deg,
)

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("diag-single", ["diagonalize", "a.mat"], 0),
    ("diag-standard", ["diagonalize", "--mode", "standard", "a.mat"], 0),
    ("diag-bundle", ["diagonalize", "--mode", "bundle", "a.mat"], 0),
    ("verify", ["verify", "a.mat", "diag-single.out"], 0),
    (
        "psd-grid",
        ["psd-grid", "a.mat", "--grid-low=-2", "--grid-high", "2", "--grid-count", "5"],
        4,
    ),
    ("equiv-check", ["equiv-check", "a.mat", "diag-bundle.out", "--grid-count", "5"], 0),
    ("gens", ["gens", "g1.mat", "g2.mat"], 0),
    # diag(1, 0, 1): the second level pivots on (1,2) across the zero row,
    # which the single path keeps in place instead of compacting it away
    ("diag101-single", ["diagonalize", "--mode", "single", "diag101.mat"], 0),
    # the 18-branch tridiagonal bundle of test_bundle_branch_counts
    ("a3-bundle", ["diagonalize", "--mode", "bundle", "a3.mat"], 0),
    # a subject with rational coefficients (L = 16): the one-variable walk
    # carries powers of L, and the checks scale each entry by them
    ("sos-standard", ["diagonalize", "--mode", "standard", "sos.mat"], 0),
    ("sos-single", ["diagonalize", "--mode", "single", "sos.mat"], 0),
    ("sos-bundle", ["diagonalize", "--mode", "bundle", "sos.mat"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


# -- certificate files ------------------------------------------------------------
#
# One golden certificate per kind pins the file format: each parses and
# re-formats to the same bytes, verifies against its subject, and the
# equiv, sos and membership goldens are what the payloads below format to.

FORMATS = {
    "diag": format_diag_certificate,
    "bundle": format_bundle_certificate,
    "equiv": format_equiv_certificate,
    "sos": format_sos_certificate,
    "membership": format_membership_certificate,
}

CERTS = [
    ("diag-single.out", "diag", "a.mat"),
    ("diag-standard.out", "diag", "a.mat"),
    ("diag101-single.out", "diag", "diag101.mat"),
    ("diag-bundle.out", "bundle", "a.mat"),
    ("a3-bundle.out", "bundle", "a3.mat"),
    ("sos-standard.out", "diag", "sos.mat"),
    ("sos-single.out", "diag", "sos.mat"),
    ("sos-bundle.out", "bundle", "sos.mat"),
    ("equiv.cert", "equiv", "a.mat"),
    ("sos.cert", "sos", "sos.mat"),
    ("membership.cert", "membership", "membership.mat"),
]


def golden_payloads():
    """(certificate, subject) payloads of equiv.cert, sos.cert and membership.cert."""
    p = lambda s: parse_polynomial(s, 1)
    m = lambda rows: PolyMatrix.from_rows([[p(s) for s in row] for row in rows])
    cert = single_path_diagonalize(parse_matrix((GOLDEN / "a.mat").read_text()))
    equiv = EquivCertificatePackage(witness_from_diag_certificate(cert), cert.D)

    c = p("2")
    factors = (m([["t1", "1"]]), m([["1", "t1"], ["0", "1/2"]]))
    gram = PolyMatrix.zeros(2, 2, 1)
    for q in factors:
        gram = gram + q.transpose() @ q
    sos = SosMatrixCertificate(c, factors)
    sos_subject = gram * p("1/4")

    gens = (PolyMatrix.diagonal([p("t1"), p("1")]), PolyMatrix.diagonal([p("1"), p("-t1 + 1")]))
    index_sets = ((), (1,), (1, 2))
    coefficients = (
        (m([["1", "t1"], ["0", "1"]]),),
        (m([["1", "0"], ["0", "0"]]), m([["0", "1"], ["t1", "0"]])),
        (m([["1", "1"], ["0", "1"]]),),
    )
    element = PolyMatrix.zeros(2, 2, 1)
    for idx, ys in zip(index_sets, coefficients):
        g = PolyMatrix.identity(2, 1)
        for k in idx:
            g = g @ gens[k - 1]
        for y in ys:
            element = element + y.transpose() @ g @ y
    membership = MembershipCertificatePackage(
        ModuleMembershipCertificate(index_sets, coefficients), gens
    )
    return {
        "equiv.cert": ("equiv", equiv, None),
        "sos.cert": ("sos", sos, sos_subject),
        "membership.cert": ("membership", membership, element),
    }


@pytest.mark.parametrize("name,kind,subject", CERTS, ids=[c[0] for c in CERTS])
def test_golden_certificate_round_trip(name, kind, subject, monkeypatch, capsys):
    text = (GOLDEN / name).read_bytes().decode("utf-8")
    parsed_kind, payload = parse_certificate(text)
    assert parsed_kind == kind
    assert FORMATS[kind](payload) == text
    monkeypatch.chdir(GOLDEN)
    assert main(["verify", subject, name]) == 0
    assert capsys.readouterr().out == f"ok: {kind} certificate verifies\n"


@pytest.mark.parametrize("name", ["equiv.cert", "sos.cert", "membership.cert"])
def test_golden_certificate_from_payload(name):
    kind, payload, subject = golden_payloads()[name]
    assert FORMATS[kind](payload).encode("utf-8") == (GOLDEN / name).read_bytes()
    if subject is not None:
        subject_file = GOLDEN / f"{kind}.mat"
        assert format_matrix(subject).encode("utf-8") == subject_file.read_bytes()


# -- certificates of earlier pivot-route constructions -----------------------
#
# legacy-*.cert are diag-single.out, diag-bundle.out and a3-bundle.out as the
# pivot routes wrote them when every level took the paper's block step, and
# legacy-m2-*.cert as they wrote them with w = m^2, the square of the product
# of the leading minors.  They still verify: verify checks the identities,
# not how they were built.

LEGACY = [
    ("legacy-diag-single.cert", "a.mat", "diag"),
    ("legacy-diag-bundle.cert", "a.mat", "bundle"),
    ("legacy-a3-bundle.cert", "a3.mat", "bundle"),
    ("legacy-m2-diag-single.cert", "a.mat", "diag"),
    ("legacy-m2-diag-bundle.cert", "a.mat", "bundle"),
    ("legacy-m2-a3-bundle.cert", "a3.mat", "bundle"),
]


@pytest.mark.parametrize("name,subject,kind", LEGACY, ids=[c[0] for c in LEGACY])
def test_legacy_certificate_verifies(name, subject, kind, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(["verify", subject, name]) == 0
    assert capsys.readouterr().out == f"ok: {kind} certificate verifies\n"


def test_legacy_bundle_equiv_check(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    for name in ("legacy-diag-bundle.cert", "legacy-m2-diag-bundle.cert"):
        assert main(["equiv-check", "a.mat", name, "--grid-count", "5"]) == 0
        assert capsys.readouterr().out == "points=5 agree=5 disagree=0\n"


# -- the README's command-line examples -----------------------------------------
#
# Each `$ polydiag <command>` block of README.md shows, up to the next prompt
# or the end of the block, the bytes of the golden that pins that command.

README = GOLDEN.parent.parent / "README.md"

README_EXAMPLES = [
    ("diagonalize a.mat", "diag-single"),
    ("verify a.mat a.cert", "verify"),
    ("psd-grid a.mat --grid-low=-2 --grid-high 2 --grid-count 5", "psd-grid"),
    ("equiv-check a.mat a.bundle --grid-count 5", "equiv-check"),
    ("gens g1.mat g2.mat", "gens"),
]


@pytest.mark.parametrize("command,name", README_EXAMPLES, ids=[c[1] for c in README_EXAMPLES])
def test_readme_example_matches_golden(command, name):
    lines = README.read_text(encoding="utf-8").split("\n")
    start = lines.index(f"$ polydiag {command}") + 1
    end = next(k for k in range(start, len(lines)) if lines[k].startswith(("$ ", "```")))
    shown = "".join(line + "\n" for line in lines[start:end])
    assert shown == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# -- byte identity over seeded matrices -----------------------------------------
#
# One sha256 over what the three routes make of 60 seeded symmetric matrices
# (n 2-4, 1-2 variables, every third one with rational coefficients): each
# certificate's text, or the type and message of the refusal, and the bundle
# under a small branch cap.  The digest was computed before the polynomial
# kernel moved to its integer form; it changes only when an output is meant
# to change.

DIGEST_CAP = 24
ROUTES_DIGEST = "e8f56dca55368ed5c8f6fae97b2a958bc267cde63c757dcd6e0fecb6e35e87c1"


def digest_matrices():
    rng = random.Random(20071)
    for k in range(60):
        n, nvars = 2 + k % 3, 1 + (k // 3) % 2
        if k % 2:
            a = rand_symmetric_total_deg(rng, n, nvars)
        else:
            a = rand_symmetric(rng, n, nvars)
        if k % 3 == 2:
            a = PolyMatrix.from_rows(
                [[a[i, j] * Fraction(i + j + 1, 2 * i + 2 * j + 3) for j in range(n)]
                 for i in range(n)]
            )
        yield a


def route_outputs(a, cap):
    routes = (
        lambda: format_diag_certificate(standard_form_diagonalize(a)),
        lambda: format_diag_certificate(single_path_diagonalize(a)),
        lambda: format_bundle_certificate(diagonalization_bundle(a, cap)),
    )
    for route in routes:
        try:
            yield route()
        except (ValueError, BundleTooLarge) as exc:
            yield f"{type(exc).__name__}: {exc}\n"


def routes_digest(matrices, cap):
    digest = hashlib.sha256()
    for a in matrices:
        digest.update(format_matrix(a).encode("utf-8"))
        for text in route_outputs(a, cap):
            digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def test_routes_digest():
    assert routes_digest(digest_matrices(), DIGEST_CAP) == ROUTES_DIGEST


# The same over 36 seeded matrices whose walks compact zero rows and columns
# out of the trailing block and meet vanishing corners: Gram matrices G^t*G
# of a G with fewer rows than columns, matrices with zero rows and columns,
# and matrices with a zero corner or a zero leading 2 x 2 block (n 3-5, 1-2
# variables).  Within the cap, 15 of the 25 bundles compact a zero row and
# 20 have a vacuous branch.  The digest was computed before the walk carried
# X_minus through its elimination.

COMPACTION_CAP = 60
COMPACTION_DIGEST = "9a60c83bc386b996c9c093719a7705c44ae1760c335ac2dbe941d5ed2388eb17"


def compaction_matrices():
    rng = random.Random(20072)
    for k in range(36):
        n, nvars, two = 3 + k % 3, 1 + (k // 9) % 2, (k // 18) % 2
        kind = (k // 3) % 3
        if kind == 0:  # rank at most 1 + two, below n
            g = rand_matrix(rng, 1 + two, n, nvars, max_deg=1)
            yield g.transpose() @ g
            continue
        a = rand_symmetric(rng, n, nvars)
        if kind == 1:  # zero rows and columns
            dead = rng.sample(range(n), 1 + two)
            keep = lambda i, j: i not in dead and j not in dead
        else:  # a zero corner, or a zero leading 2 x 2 block
            keep = lambda i, j: max(i, j) > two
        zero = parse_polynomial("0", nvars)
        yield PolyMatrix.from_rows(
            [[a[i, j] if keep(i, j) else zero for j in range(n)] for i in range(n)]
        )


def test_compaction_digest():
    assert routes_digest(compaction_matrices(), COMPACTION_CAP) == COMPACTION_DIGEST


# The same two digests with every walk on Polynomials: one-variable walks
# then take the sparse ring, which the digests above leave to two variables.


def test_routes_digest_on_polynomials(monkeypatch):
    monkeypatch.setattr(diagonal, "_WALK_BITS_CAP", 0)
    assert routes_digest(digest_matrices(), DIGEST_CAP) == ROUTES_DIGEST


def test_compaction_digest_on_polynomials(monkeypatch):
    monkeypatch.setattr(diagonal, "_WALK_BITS_CAP", 0)
    assert routes_digest(compaction_matrices(), COMPACTION_CAP) == COMPACTION_DIGEST


# -- the PSD oracle over seeded inputs ------------------------------------------
#
# One sha256 over what the oracle makes of 60 seeded polynomial matrices on
# small rational grids: every (point, psd, extra_ok) triple of _grid_sweep,
# the psd_on_grid report, and for the matrices that have a bundle, the sweep
# with the bundle's diagonal entries as its extra polynomials and the
# check_bundle_equivalence report; each refusal enters as its type and
# message, after the triples yielded before it.  The matrices are symmetric
# (n 1-6, 1-2 variables), Gram matrices G^t*G of a G with fewer rows than
# columns, such Gram matrices with a diagonal entry nudged down, matrices
# with a zero row and column, and 3 x 3 or 4 x 4 matrices that are symmetric
# at some grid points only, their differing pair off the first row.  Then
# psd_rational on seeded rational matrices, n 1-12, and on a 13 x 13.  The
# digest was computed before the sweep handed the kernel its upper triangle.

ORACLE_DIGEST = "0108caadd21367ebf021e9ef20a1ab97b2f69bddeea874e8b43be805e78b91c5"


def _text(value):
    if isinstance(value, tuple):
        return "(" + " ".join(_text(v) for v in value) + ")"
    return str(value)


def oracle_grid(rng, nvars):
    axes = []
    for _ in range(nvars):
        low = Fraction(rng.randint(-6, 2), rng.choice([1, 2, 3]))
        step = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(1)])
        count = rng.randint(1, 7 if nvars == 1 else 4)
        axes.append((low, low + (count - 1) * step, count))
    return GridSpec(tuple(axes))


def oracle_cases():
    """(matrix, grid, extra polynomials) triples; see ORACLE_DIGEST."""
    rng = random.Random(20073)
    for k in range(60):
        nvars, kind = 1 + (k // 5) % 2, k % 5
        spec = oracle_grid(rng, nvars)
        extra = [rand_poly(rng, nvars) for _ in range(rng.randint(0, 2))]
        if kind == 0:  # symmetric, n 1-6
            yield rand_symmetric(rng, 1 + (k // 5) % 6, nvars), spec, extra
            continue
        n = 2 + (k // 10) % 3
        if kind in (1, 2):  # a Gram matrix of rank below n, maybe nudged down
            g = rand_matrix(rng, rng.randint(1, n - 1), n, nvars, max_deg=1)
            a = g.transpose() @ g
            if kind == 2:
                i = rng.randrange(n)
                nudge = PolyMatrix.zeros(n, n, nvars).entries
                nudge = nudge[: i * n + i] + (rand_poly(rng, nvars) - 1,) + nudge[i * n + i + 1 :]
                a = a + PolyMatrix(n, n, nudge)
            yield a, spec, extra
            continue
        a = rand_symmetric(rng, n + (kind == 4), nvars)
        rows = [[a[i, j] for j in range(a.cols)] for i in range(a.rows)]
        if kind == 3:  # a zero row and column
            dead = rng.randrange(a.rows)
            zero = parse_polynomial("0", nvars)
            for j in range(a.rows):
                rows[dead][j] = rows[j][dead] = zero
        else:  # (j, i) differs from (i, j), 1 <= i < j, by a multiple of t1*(t1 - 1)
            i = rng.randint(1, a.rows - 2)
            j = rng.randint(i + 1, a.rows - 1)
            c = rng.choice([1, -2, 3])
            rows[j][i] = rows[i][j] + parse_polynomial(f"{c}", nvars) * parse_polynomial(
                "t1^2 - t1", nvars
            )
            axes = ((0, 1, 2), (0, 3, 4), (-1, 1, 3))[k // 5 % 3]
            spec = GridSpec((axes,) + spec.axes[1:])
        yield PolyMatrix.from_rows(rows), spec, extra


def oracle_rational_matrices():
    rng = random.Random(20074)
    for n in range(1, 13):
        yield rand_rational_symmetric(rng, n)
        g = [[rand_fraction(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
        gram = [[sum(r[i] * r[j] for r in g) for j in range(n)] for i in range(n)]
        if n % 2:
            gram[n // 2][n // 2] -= Fraction(1, n)
        yield RationalMatrix(n, [v for row in gram for v in row])
    yield RationalMatrix(13, [Fraction(int(i == j)) for i in range(13) for j in range(13)])


def oracle_outputs():
    """The text lines ORACLE_DIGEST hashes."""

    def guarded(run):
        try:
            yield from run()
        except (ValueError, BundleTooLarge) as exc:
            yield f"{type(exc).__name__}: {exc}"

    def sweep(a, extra, spec):
        for point, psd, extra_ok in _grid_sweep(a, extra, spec):
            yield f"{_text(point)} {psd} {extra_ok}"

    def grid_report(a, spec):
        report = psd_on_grid(a, spec)
        yield f"grid {report.total_points} {report.psd_count} {_text(report.non_psd_points)}"

    def equiv_report(a, bundle, spec):
        report = check_bundle_equivalence(a, bundle, spec)
        yield f"equiv {report.total_points} {report.agreements} {_text(report.disagreements)}"

    for a, spec, extra in oracle_cases():
        yield format_matrix(a)
        yield _text(spec.axes)
        yield from guarded(lambda: sweep(a, extra, spec))
        yield from guarded(lambda: grid_report(a, spec))
        if a.rows > 3 or not a.is_symmetric():
            continue
        try:
            bundle = diagonalization_bundle(a, 40)
        except (ValueError, BundleTooLarge) as exc:
            yield f"{type(exc).__name__}: {exc}"
            continue
        diag = [cert.D[k, k] for cert, _trace in bundle.branches for k in range(cert.D.rows)]
        yield from guarded(lambda: sweep(a, diag, spec))
        yield from guarded(lambda: equiv_report(a, bundle, spec))
    for m in oracle_rational_matrices():
        yield _text(m.entries)
        yield from guarded(lambda: iter([str(psd_rational(m))]))


def test_oracle_digest():
    digest = hashlib.sha256()
    for line in oracle_outputs():
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == ORACLE_DIGEST


# -- the readers' verdicts on damaged files -------------------------------------
#
# One sha256 over what the readers make of every one-line mutation of the
# golden certificates and matrix files: each line deleted, duplicated, and
# replaced by each hostile line of tests/test_fuzz.py (HOSTILE for
# certificates, HOSTILE_MATRIX for matrix files).  A verdict is the
# re-formatted payload, or the ParseError's text, so the digest pins which
# fault a reader names first as well as what it reads.  a3-bundle.out is left
# out: its 690 lines hold the section shapes of diag-bundle.out and would
# take most of a minute.  The digest was computed before the readers moved
# to one pass over a file's lines.

READER_DIGEST = "2af764af54f4176d5685695096c265f152f1f72cbb277912308135e4d49f1d75"


def reader_mutations(lines, hostile):
    for k in range(len(lines)):
        yield lines[:k] + lines[k + 1 :]
        yield lines[: k + 1] + lines[k:]
        for new in hostile:
            yield lines[:k] + [new] + lines[k + 1 :]


def reader_outputs():
    """The text lines READER_DIGEST hashes."""
    from test_fuzz import HOSTILE, HOSTILE_MATRIX, MATRICES

    def verdict(read, text):
        try:
            return read(text)
        except ParseError as exc:
            return f"ParseError: {exc}"

    def certificate(text):
        kind, payload = parse_certificate(text)
        return f"{kind}\n{FORMATS[kind](payload)}"

    for name, _kind, _subject in CERTS:
        if name == "a3-bundle.out":
            continue
        lines = (GOLDEN / name).read_text(encoding="utf-8").split("\n")
        yield name
        for mutated in reader_mutations(lines, HOSTILE):
            yield verdict(certificate, "\n".join(mutated))
    for name, _cert in MATRICES:
        lines = (GOLDEN / name).read_text(encoding="utf-8").split("\n")
        yield name
        for mutated in reader_mutations(lines, HOSTILE_MATRIX):
            yield verdict(lambda text: format_matrix(parse_matrix(text)), "\n".join(mutated))


def test_reader_digest():
    digest = hashlib.sha256()
    for line in reader_outputs():
        digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == READER_DIGEST
