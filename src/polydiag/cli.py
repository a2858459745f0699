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
"""

from __future__ import annotations

import argparse
import re
import sys
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
    raise _UsageError(
        f"{flag} given {len(values)} times, expected once or {nvars} times (one per variable)"
    )


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


def _add_grid_flags(parser):
    parser.add_argument(
        "--grid-low",
        action="append",
        metavar="Q",
        help="axis lower bound, rational; repeat per variable (default -10)",
    )
    parser.add_argument(
        "--grid-high",
        action="append",
        metavar="Q",
        help="axis upper bound, rational; repeat per variable (default 10)",
    )
    parser.add_argument(
        "--grid-count",
        action="append",
        type=_int_flag,
        metavar="N",
        help="points per axis; repeat per variable (default 21)",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polydiag",
        description="Exact congruence diagonalization of symmetric polynomial "
        "matrices, with machine-checkable positivity certificates.",
    )
    parser.add_argument("--version", action="version", version=f"polydiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagonalize", help="diagonalize a symmetric matrix file")
    p.add_argument("matrix_file")
    p.add_argument(
        "--mode",
        choices=("standard", "single", "bundle"),
        default="single",
        help="standard: minor-based closed form; single: one pivot path; "
        "bundle: every pivot path (default: single)",
    )
    p.add_argument("--out", metavar="PATH", help="write the certificate here instead of stdout")
    p.add_argument(
        "--cap-branches",
        type=_int_flag,
        default=10_000,
        metavar="N",
        help="abort bundle mode past this many branches (default 10000)",
    )
    p.set_defaults(func=_cmd_diagonalize)

    p = sub.add_parser("verify", help="verify a certificate against a subject matrix")
    p.add_argument("matrix_file")
    p.add_argument("certificate_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("psd-grid", help="test pointwise PSD-ness on a rational grid")
    p.add_argument("matrix_file")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_psd_grid)

    p = sub.add_parser("equiv-check", help="compare a bundle with the PSD oracle on a grid")
    p.add_argument("matrix_file")
    p.add_argument("certificate_file")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_equiv_check)

    p = sub.add_parser("gens", help="print ascending products of diagonal generators")
    p.add_argument("matrix_files", nargs="+")
    p.add_argument("--out", metavar="PATH", help="write the listing here instead of stdout")
    p.set_defaults(func=_cmd_gens)

    return parser, sub.choices


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


def _checked_certificate(args, only=None):
    """(subject, kind, payload, failures) for the matrix and certificate files
    of ``args``; each failed identity is printed."""
    a = _read(args.matrix_file)
    kind, payload = _read(args.certificate_file, parse_certificate)
    if only and kind != only:
        raise _UsageError(f"{args.command} needs a {only} certificate, got kind {kind!r}")
    if _KINDS[kind].shape(payload) != (a.rows, a.nvars):
        raise _UsageError("certificate dimensions do not match the subject matrix")
    failures = _KINDS[kind].failures(a, payload)
    for f in failures:
        print(f"identity failed: {f}")
    return a, kind, payload, failures


def _cmd_verify(args):
    _a, kind, _payload, failures = _checked_certificate(args)
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
    a, _kind, bundle, failures = _checked_certificate(args, only="bundle")
    if failures:
        return 3
    report = check_bundle_equivalence(a, bundle, _grid_spec(args, a.nvars))
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


_PARSER, _SUBPARSERS = _build_parser()

# --grid-low and --grid-high as argparse's abbreviations reach them
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


def _parse_args(argv):
    """The namespace of argv, as _PARSER.parse_args(argv) gives it.

    When argv[0] names a subcommand, that subcommand's parser reads the rest
    alone.  Any other argv, or one that leaves arguments over, goes through
    _PARSER, so every usage text and exit code is the full parser's.
    """
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is not None:
        if argv[0] in ("psd-grid", "equiv-check"):
            argv = _join_negative_bounds(argv)
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _PARSER.parse_args(argv)


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
