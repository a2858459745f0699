"""Regression fuzz of the file readers through the command line.

Each example deletes, duplicates or replaces one line of a golden file.  A
mutated certificate goes through ``verify`` against its subject; a mutated
matrix file through ``diagonalize`` in all three modes, ``psd-grid``,
``gens`` and ``verify`` as the subject.  Whatever the damage, every command
must return one of its documented exit codes (0 ok, 1 parse or usage
error, 2 precondition, 3 failed identity, 4 grid positivity failure, 5
equivalence disagreement) and never raise.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiag.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (certificate, subject) per kind
KINDS = [
    ("diag-single.out", "a.mat"),
    ("diag-bundle.out", "a.mat"),
    ("equiv.cert", "a.mat"),
    ("sos.cert", "sos.mat"),
    ("membership.cert", "membership.mat"),
]

# replacement lines beyond the certificate's own: section headers, meta
# lines, pivot lines, malformed text and oversized numbers
HOSTILE = [
    "",
    "-",
    "x",
    "[meta]",
    "[matrix D]",
    "[poly w]",
    "[trace 1]",
    "[indexset 1]",
    "dim 3",
    "nvars 2",
    "branches 1000000000000",
    "terms 0",
    "2 2 2",
    "1 1 1",
    "0",
    "1/0",
    "t2",
    "t1^4096",
    "t1^4097",
    "1 2 2/1",
    "2 1 1/1",
    "9" * 4000,
    "9" * 5000,
    "t1^" + "9" * 5000,
]


# (matrix file, a certificate to verify with it as the subject; the
# generators g1 and g2 have none of their own)
MATRICES = [
    ("a.mat", "diag-single.out"),
    ("a3.mat", "a3-bundle.out"),
    ("diag101.mat", "diag101-single.out"),
    ("g1.mat", "sos.cert"),
    ("g2.mat", "sos.cert"),
    ("sos.mat", "sos.cert"),
    ("membership.mat", "membership.cert"),
]

# replacement lines beyond the matrix file's own: headers, entries that are
# malformed, oversized or of a high degree, and digits that are not ASCII
HOSTILE_MATRIX = [
    "",
    "#",
    "x",
    "0",
    "1/0",
    "t2",
    "t1^4096",
    "t1^40 + 1",
    "9" * 5000,
    "1 1 1",
    "2 2 1",
    "3 3 1",
    "3 3 2",
    "2 3 1",
    "0 0 1",
    "1 1 65",
    "1000000 1000000 1",
    "2_0 1 1",
    "\uff12 2 1",
    "t\uff11",
]


@st.composite
def one_line_mutation(draw, lines, hostile=HOSTILE):
    k = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "replace")))
    if op == "delete":
        return lines[:k] + lines[k + 1 :]
    if op == "duplicate":
        return lines[: k + 1] + lines[k:]
    new = draw(st.sampled_from(sorted(set(lines)) + hostile))
    return lines[:k] + [new] + lines[k + 1 :]


def _run(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


@pytest.mark.parametrize("cert,subject", KINDS, ids=[k[0] for k in KINDS])
def test_mutated_certificates_exit_cleanly(cert, subject):
    lines = (GOLDEN / cert).read_text().split("\n")

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(one_line_mutation(lines))
    def check(mutated):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.cert"
            path.write_text("\n".join(mutated))
            code = _run(["verify", str(GOLDEN / subject), str(path)])
        assert code in (0, 1, 2, 3)

    check()


@pytest.mark.parametrize("subject,cert", MATRICES, ids=[m[0] for m in MATRICES])
def test_mutated_matrix_files_exit_cleanly(subject, cert):
    lines = (GOLDEN / subject).read_text().split("\n")

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(one_line_mutation(lines, HOSTILE_MATRIX))
    def check(mutated):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.mat"
            path.write_text("\n".join(mutated), encoding="utf-8")
            for argv in (
                ["diagonalize", "--mode", "standard", str(path)],
                ["diagonalize", "--mode", "single", str(path)],
                ["diagonalize", "--mode", "bundle", "--cap-branches", "20", str(path)],
                ["psd-grid", str(path), "--grid-count", "3"],
                ["gens", str(path)],
                ["verify", str(path), str(GOLDEN / cert)],
            ):
                assert _run(argv) in (0, 1, 2, 3, 4, 5), argv

    check()
