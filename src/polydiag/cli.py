"""Command-line interface.

Subcommands:
  diagonalize  read a matrix file, write a diagonalization certificate
  verify       check a certificate file against a subject matrix file
  psd-grid     test a matrix for pointwise PSD-ness on a rational grid
  equiv-check  compare a bundle's sign condition with the PSD oracle
  gens         print the ascending products of diagonal generator matrices

Exit codes: 0 success, 1 parse or usage error, 2 algorithm precondition
violated, 3 verification failure, 4 grid positivity failure, 5 equivalence
disagreement.  Outputs are byte-deterministic for fixed inputs and flags.

Each subcommand's grammar (positionals, and each flag's name, dest, type,
choices, default, metavar and help) is stated once, in _COMMANDS.  The
argparse parser is built from it, and _read_plain reads plain command lines
from it directly: exact flag names, values that do not start with '-' but
negative grid bounds, and the right positional count.  Every other command
line goes through argparse, so help, abbreviations and usage errors read,
and exit, as argparse makes them.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .arith import _decimal_int
from .certificates import (
    _HEADER,
    _KINDS,
    _index_line,
    format_bundle_certificate,
    format_diag_certificate,
    parse_certificate,
    tmodule_generators,
    tmodule_index_sets,
)
from .diagonal import (
    diagonalization_bundle,
    single_path_diagonalize,
    standard_form_diagonalize,
)
from .errors import BundleTooLarge, InternalIdentityFailure, ParseError
from .polymat import _matrix_lines, parse_matrix
from .positivity import GridSpec, check_bundle_equivalence, psd_on_grid


class _UsageError(Exception):
    pass


def _read(path, parse=None):
    """parse(text of the file at path), parse_matrix by default; a ParseError,
    or non-UTF-8 text, names the file.

    parse_matrix is looked up at each call, not bound once as a default, so
    a wrapper put on this module's name sees every matrix-file parse.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return (parse or parse_matrix)(handle.read())
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _format_point(point):
    return "(" + ",".join(str(c) for c in point) + ")"


# ASCII integers, p/q and decimals; Fraction() alone would also read other
# scripts' digits, '_' separators and 1e<exp>, building 10^exp however large
_RATIONAL_RE = re.compile(r"[-+]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def _parse_fraction(text, flag):
    if _RATIONAL_RE.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise _UsageError(f"bad {flag} value {text!r}, expected a rational like -10 or 1/2")


def _int_flag(text):
    """An integer flag value, ASCII digits only."""
    return _decimal_int(text)


# argparse names the type in its "invalid int value: '...'" message
_int_flag.__name__ = "int"


def _expand_axis_values(values, nvars, flag):
    if values is None or len(values) == 0:
        return None
    if len(values) == 1:
        return values * nvars
    if len(values) == nvars:
        return list(values)
    expected = "once (one variable)" if nvars == 1 else f"once or {nvars} times (one per variable)"
    raise _UsageError(f"{flag} given {len(values)} times, expected {expected}")


def _grid_spec(args, nvars):
    lows = _expand_axis_values(args.grid_low, nvars, "--grid-low") or ["-10"] * nvars
    highs = _expand_axis_values(args.grid_high, nvars, "--grid-high") or ["10"] * nvars
    counts = _expand_axis_values(args.grid_count, nvars, "--grid-count") or [21] * nvars
    axes = []
    for low_text, high_text, count in zip(lows, highs, counts):
        low = _parse_fraction(str(low_text), "--grid-low")
        high = _parse_fraction(str(high_text), "--grid-high")
        if count < 1:
            raise _UsageError(f"--grid-count must be at least 1, got {count}")
        if low > high:
            raise _UsageError(f"--grid-low {low} exceeds --grid-high {high}")
        axes.append((low, high, count))
    return GridSpec(tuple(axes))


def _cmd_diagonalize(args):
    a = _read(args.matrix_file)
    if args.mode == "standard":
        text = format_diag_certificate(standard_form_diagonalize(a))
    elif args.mode == "single":
        text = format_diag_certificate(single_path_diagonalize(a))
    else:
        if args.cap_branches < 1:
            raise _UsageError(f"--cap-branches must be at least 1, got {args.cap_branches}")
        text = format_bundle_certificate(diagonalization_bundle(a, args.cap_branches))
    _emit(text, args.out)
    return 0


def _checked_certificate(args, a, only=None):
    """(kind, payload, failures) for the certificate file of ``args`` and its
    subject ``a``; each failed identity is printed."""
    kind, payload = _read(args.certificate_file, parse_certificate)
    if only and kind != only:
        raise _UsageError(f"{args.command} needs a {only} certificate, got kind {kind!r}")
    if _KINDS[kind].shape(payload) != (a.rows, a.nvars):
        raise _UsageError("certificate dimensions do not match the subject matrix")
    failures = _KINDS[kind].failures(a, payload)
    for f in failures:
        print(f"identity failed: {f}")
    return kind, payload, failures


def _cmd_verify(args):
    kind, _payload, failures = _checked_certificate(args, _read(args.matrix_file))
    if failures:
        return 3
    print(f"ok: {kind} certificate verifies")
    return 0


def _cmd_psd_grid(args):
    a = _read(args.matrix_file)
    if not a.is_square():
        raise _UsageError(f"matrix must be square, got {a.rows}x{a.cols}")
    report = psd_on_grid(a, _grid_spec(args, a.nvars))
    for point in report.non_psd_points:
        print(f"{_format_point(point)}; psd=0")
    print(
        f"points={report.total_points} psd={report.psd_count} "
        f"non_psd={len(report.non_psd_points)}"
    )
    return 0 if report.all_psd() else 4


def _cmd_equiv_check(args):
    a = _read(args.matrix_file)
    grid = _grid_spec(args, a.nvars)  # bad grid flags are refused before the bundle is read
    _kind, bundle, failures = _checked_certificate(args, a, only="bundle")
    if failures:
        return 3
    report = check_bundle_equivalence(a, bundle, grid)
    for point, oracle, bundle_flag in report.disagreements:
        print(f"{_format_point(point)}; oracle={int(oracle)}; bundle={int(bundle_flag)}")
    print(
        f"points={report.total_points} agree={report.agreements} "
        f"disagree={len(report.disagreements)}"
    )
    return 0 if not report.disagreements else 5


def _cmd_gens(args):
    mats = [_read(path) for path in args.matrix_files]
    products = tmodule_generators(mats)
    index_sets = tmodule_index_sets(len(mats))
    lines = [_HEADER]
    for idx, product in zip(index_sets, products):
        lines += [f"# indexset {_index_line(idx)}", *_matrix_lines(product)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# A flag of the grammar below: dest names its value in the namespace,
# append collects every value given into a list, the rest is argparse's
_Flag = namedtuple(
    "_Flag", "name dest help metavar type choices default append", defaults=(None,) * 4 + (False,)
)


def _out_flag(what):
    return _Flag("--out", "out", f"write {what} here instead of stdout", "PATH")


_GRID_FLAGS = (
    _Flag("--grid-low", "grid_low",
          "axis lower bound, rational; repeat per variable (default -10)", "Q", append=True),
    _Flag("--grid-high", "grid_high",
          "axis upper bound, rational; repeat per variable (default 10)", "Q", append=True),
    _Flag("--grid-count", "grid_count",
          "points per axis; repeat per variable (default 21)", "N", type=_int_flag, append=True),
)

# Each subcommand's grammar: its help line, its positionals as (dest,
# nargs), nargs "+" only for a lone one, its flags by name, and the function
# that runs it.  _build_parser makes the argparse parser from it and
# _read_plain reads plain argv by it.
_COMMANDS = {
    name: (help, positionals, {f.name: f for f in flags}, func)
    for name, help, positionals, flags, func in (
        ("diagonalize", "diagonalize a symmetric matrix file", (("matrix_file", None),), (
            _Flag("--mode", "mode", "standard: minor-based closed form; single: one pivot path; "
                  "bundle: every pivot path (default: single)",
                  choices=("standard", "single", "bundle"), default="single"),
            _out_flag("the certificate"),
            _Flag("--cap-branches", "cap_branches",
                  "abort bundle mode past this many branches (default 10000)", "N",
                  type=_int_flag, default=10_000),
        ), _cmd_diagonalize),
        ("verify", "verify a certificate against a subject matrix",
         (("matrix_file", None), ("certificate_file", None)), (), _cmd_verify),
        ("psd-grid", "test pointwise PSD-ness on a rational grid", (("matrix_file", None),),
         _GRID_FLAGS, _cmd_psd_grid),
        ("equiv-check", "compare a bundle with the PSD oracle on a grid",
         (("matrix_file", None), ("certificate_file", None)), _GRID_FLAGS, _cmd_equiv_check),
        ("gens", "print ascending products of diagonal generators", (("matrix_files", "+"),),
         (_out_flag("the listing"),), _cmd_gens),
    )
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polydiag",
        description="Exact congruence diagonalization of symmetric polynomial "
        "matrices, with machine-checkable positivity certificates.",
    )
    parser.add_argument("--version", action="version", version=f"polydiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, positionals, flags, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for dest, nargs in positionals:
            p.add_argument(dest, nargs=nargs)
        for f in flags.values():
            p.add_argument(
                f.name,
                action="append" if f.append else "store",
                dest=f.dest,
                type=f.type,
                choices=f.choices,
                default=f.default,
                metavar=f.metavar,
                help=f.help,
            )
        p.set_defaults(func=func)
    return parser


_PARSER = _build_parser()

# --grid-low and --grid-high, and argparse's abbreviations of them
_GRID_BOUND_FLAG_RE = re.compile(r"--grid-(?:l(?:ow?)?|h(?:i(?:gh?)?)?)")


def _join_negative_bounds(argv):
    """argv with each grid bound flag and a negative rational after it, such
    as ``--grid-low -1/2``, joined into ``--grid-low=-1/2``.

    argparse takes -1/2 for a flag, as it does any word that starts with '-'
    and is not -<digits> or -<digits>.<digits>.
    """
    out = []
    for k, arg in enumerate(argv):
        if arg == "--":  # the words after it are positional
            return out + argv[k:]
        if (
            out
            and arg.startswith("-")
            and _RATIONAL_RE.fullmatch(arg)
            and _GRID_BOUND_FLAG_RE.fullmatch(out[-1])
        ):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _read_plain(argv):
    """The namespace _PARSER gives a plain argv, read from _COMMANDS alone;
    None for any other argv.

    Plain: argv[0] names a subcommand; each word that starts with '-' is one
    of its flags, by its exact name, as --flag value or --flag=value; no
    value starts with '-' but a negative rational after --grid-low or
    --grid-high; each value passes its flag's type and choices; and the
    positionals number as the subcommand takes them, in one run when one
    takes several, as argparse reads a run.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _help, positionals, flags, func = command
    values = {f.dest: f.default for f in flags.values()}
    words, gap = [], False
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if gap and words and positionals[-1][1]:
                return None  # argparse ends a run of several at a flag
            words.append(arg)
            gap = False
            continue
        name, eq, value = arg.partition("=")
        f = flags.get(name)
        if f is None:
            return None
        if not eq:
            value = next(rest, None)
            if value is None:
                return None
        if value.startswith("-") and not (
            _RATIONAL_RE.fullmatch(value) and _GRID_BOUND_FLAG_RE.fullmatch(name)
        ):
            return None
        if f.type is not None:
            try:
                value = f.type(value)
            except ValueError:
                return None
        if f.choices is not None and value not in f.choices:
            return None
        values[f.dest] = (values[f.dest] or []) + [value] if f.append else value
        gap = True
    if positionals[-1][1]:
        if not words:
            return None
        values[positionals[0][0]] = words
    elif len(words) == len(positionals):
        values.update(zip((dest for dest, _nargs in positionals), words))
    else:
        return None
    return argparse.Namespace(command=argv[0], **values, func=func)


def _parse_args(argv):
    """The namespace of argv, as _PARSER.parse_args(argv) gives it.

    A plain argv is read by _read_plain, with no argparse parser.  Any other
    goes through _PARSER, after _join_negative_bounds for the grid commands,
    so every help and usage text and exit code is argparse's.
    """
    args = _read_plain(argv)
    if args is None:
        if argv[:1] in (["psd-grid"], ["equiv-check"]):
            argv = _join_negative_bounds(argv)
        args = _PARSER.parse_args(argv)
    return args


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BundleTooLarge, InternalIdentityFailure) as exc:
        # ValueError covers NotSymmetric, ZeroMatrix, NotStandardForm,
        # DimensionCap and ExponentOverflow
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
