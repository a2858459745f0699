"""cli._parse_args against the full argparse parser on enumerated argv.

Standard library only, so that it runs on interpreters without pytest:

    python tests/argv_differential.py

It enumerates argv over a fixed token alphabet (ARGV_TOKENS, the five
subcommands, every flag with and without '=', two abbreviations and a set
of values), parses each through cli._parse_args and through cli._PARSER on
the argv that _parse_args would hand it, and compares the namespaces, or
the exit status, stdout and stderr.  It prints the counts of argv, of argv
that cli._read_plain read without argparse, and of mismatches, and exits 1
on a mismatch.  No file is read: parsing stops at the namespace.
tests/test_cli.py runs a fixed sample of the same argv.
"""

import io
import itertools
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.realpath(__file__)), os.pardir, "src"))

from polydiag import cli

COMMANDS = ["diagonalize", "verify", "psd-grid", "equiv-check", "gens"]
FLAGS = ["--mode", "--out", "--cap-branches", "--grid-low", "--grid-high", "--grid-count"]
VALUES = ["-1/2", "-3", "3", "0", "abc", "", "-", "--", "-h", "--version", "sideways", "1/0", "bundle"]
ARGV_TOKENS = (
    FLAGS
    + [f"{flag}={value}" for flag in FLAGS for value in VALUES]
    + ["--grid-l", "--cap"]
    + VALUES
)
# the tokens of the longest argv: bare flags, values and a few '=' forms
SHORT_TOKENS = FLAGS + ["--grid-l", "--cap"] + VALUES + [
    "--grid-low=-1/2", "--grid-count=3", "--mode=bundle", "--out=abc",
]


def argv_enumeration():
    """Every argv of a subcommand and up to two ARGV_TOKENS, or three
    SHORT_TOKENS, and of a few other first words and up to one token."""
    for command in COMMANDS:
        for n in range(3):
            for tail in itertools.product(ARGV_TOKENS, repeat=n):
                yield [command, *tail]
        for tail in itertools.product(SHORT_TOKENS, repeat=3):
            yield [command, *tail]
    yield []
    for head in ("-h", "--version", "sideways", "", "--", "--grid-low", "diag"):
        yield [head]
        for token in ARGV_TOKENS:
            yield [head, token]


def parse_outcome(parse, argv):
    """vars() of parse(argv), or ("exit", code), with the stdout and stderr
    written on the way."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    """_PARSER's namespace of argv, the grid commands' bounds joined first."""
    if argv[:1] in (["psd-grid"], ["equiv-check"]):
        argv = cli._join_negative_bounds(argv)
    return cli._PARSER.parse_args(argv)


def mismatches(argvs):
    """(argv count, count read plain, the argv whose outcomes differ)."""
    count, plain, differ = 0, 0, []
    for argv in argvs:
        count += 1
        plain += cli._read_plain(list(argv)) is not None
        if parse_outcome(cli._parse_args, argv) != parse_outcome(full_parse, argv):
            differ.append(argv)
    return count, plain, differ


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    count, plain, differ = mismatches(argv_enumeration())
    for argv in differ[:20]:
        print("MISMATCH", argv)
    print(f"Python {sys.version.split()[0]}: {count} argv, {plain} read plain, {len(differ)} mismatches")
    sys.exit(bool(differ))
