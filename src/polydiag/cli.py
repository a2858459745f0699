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
import sys
from fractions import Fraction

from . import __version__
from .certificates import (
    bundle_certificate_failures,
    diag_certificate_failures,
    equiv_witness_failures,
    format_bundle_certificate,
    format_diag_certificate,
    membership_failures,
    parse_certificate,
    sos_matrix_failures,
    tmodule_generators,
    tmodule_index_sets,
)
from .diagonal import (
    diagonalization_bundle,
    single_path_diagonalize,
    standard_form_diagonalize,
)
from .errors import (
    BundleTooLarge,
    DimensionCap,
    InternalIdentityFailure,
    NotStandardForm,
    NotSymmetric,
    ParseError,
    ZeroMatrix,
)
from .polymat import format_matrix, parse_matrix
from .positivity import GridSpec, _compare_on_grid, psd_on_grid


class _UsageError(Exception):
    pass


def _read_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_matrix(path):
    try:
        return parse_matrix(_read_text(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _format_point(point):
    return "(" + ",".join(str(c) for c in point) + ")"


def _parse_fraction(text, flag):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"bad {flag} value {text!r}, expected a rational like -10 or 1/2") from None


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
        type=int,
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
        type=int,
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

    return parser


def _cmd_diagonalize(args):
    a = _read_matrix(args.matrix_file)
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


def _cmd_verify(args):
    a = _read_matrix(args.matrix_file)
    kind, payload = parse_certificate(_read_text(args.certificate_file))
    if kind == "diag":
        if payload.subject_dim != a.rows or payload.w.nvars != a.nvars:
            raise _UsageError("certificate dimensions do not match the subject matrix")
        failures = diag_certificate_failures(a, payload)
    elif kind == "bundle":
        if payload.subject_dim != a.rows or payload.branches[0][0].w.nvars != a.nvars:
            raise _UsageError("certificate dimensions do not match the subject matrix")
        failures = bundle_certificate_failures(a, payload)
    elif kind == "equiv":
        wit = payload.witness
        if wit.x_plus.rows != a.rows or wit.z.nvars != a.nvars:
            raise _UsageError("certificate dimensions do not match the subject matrix")
        failures = equiv_witness_failures(a, payload.subject_b, wit)
    elif kind == "sos":
        if payload.factors and payload.factors[0].cols != a.rows:
            raise _UsageError("certificate dimensions do not match the subject matrix")
        if payload.c.nvars != a.nvars:
            raise _UsageError("certificate dimensions do not match the subject matrix")
        failures = sos_matrix_failures(a, payload)
    else:
        gens = payload.generators
        if gens[0].nvars != a.nvars:
            raise _UsageError("certificate dimensions do not match the subject matrix")
        failures = membership_failures(a, gens, payload.certificate)
    if failures:
        for f in failures:
            print(f"identity failed: {f}")
        return 3
    print(f"ok: {kind} certificate verifies")
    return 0


def _cmd_psd_grid(args):
    a = _read_matrix(args.matrix_file)
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
    a = _read_matrix(args.matrix_file)
    kind, payload = parse_certificate(_read_text(args.certificate_file))
    if kind != "bundle":
        raise _UsageError(f"equiv-check needs a bundle certificate, got kind {kind!r}")
    if payload.subject_dim != a.rows or payload.branches[0][0].w.nvars != a.nvars:
        raise _UsageError("certificate dimensions do not match the subject matrix")
    failures = bundle_certificate_failures(a, payload)
    if failures:
        for f in failures:
            print(f"identity failed: {f}")
        return 3
    # verified just above; the grid comparison does not verify again
    report = _compare_on_grid(a, payload, _grid_spec(args, a.nvars))
    for point, oracle, bundle_flag in report.disagreements:
        print(f"{_format_point(point)}; oracle={int(oracle)}; bundle={int(bundle_flag)}")
    print(
        f"points={report.total_points} agree={report.agreements} "
        f"disagree={len(report.disagreements)}"
    )
    return 0 if not report.disagreements else 5


def _cmd_gens(args):
    mats = [_read_matrix(path) for path in args.matrix_files]
    products = tmodule_generators(mats)
    index_sets = tmodule_index_sets(len(mats))
    lines = [f"# generated-by polydiag {__version__}"]
    for idx, product in zip(index_sets, products):
        label = " ".join(str(k) for k in idx) if idx else "-"
        lines.append(f"# indexset {label}")
        lines.append(format_matrix(product).rstrip("\n"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        NotSymmetric,
        ZeroMatrix,
        NotStandardForm,
        BundleTooLarge,
        DimensionCap,
        InternalIdentityFailure,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
