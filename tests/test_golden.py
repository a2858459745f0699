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

from pathlib import Path

import pytest

from polydiag.cli import main

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
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
