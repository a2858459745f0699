"""Regression fuzz of the certificate reader through the command line.

Each example deletes, duplicates or replaces one line of a golden
certificate and runs ``verify`` on it against the certificate's subject.
Whatever the damage, the command must return one of its documented exit
codes (0 ok, 1 parse or usage error, 2 precondition, 3 failed identity)
and never raise.
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


@st.composite
def one_line_mutation(draw, lines):
    k = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "replace")))
    if op == "delete":
        return lines[:k] + lines[k + 1 :]
    if op == "duplicate":
        return lines[: k + 1] + lines[k:]
    new = draw(st.sampled_from(sorted(set(lines)) + HOSTILE))
    return lines[:k] + [new] + lines[k + 1 :]


@pytest.mark.parametrize("cert,subject", KINDS, ids=[k[0] for k in KINDS])
def test_mutated_certificates_exit_cleanly(cert, subject):
    lines = (GOLDEN / cert).read_text().split("\n")

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(one_line_mutation(lines))
    def check(mutated):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.cert"
            path.write_text("\n".join(mutated))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(["verify", str(GOLDEN / subject), str(path)])
        assert code in (0, 1, 2, 3)

    check()
