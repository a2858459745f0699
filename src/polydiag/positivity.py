"""Exact pointwise positivity checks for polynomial matrices.

A rational symmetric matrix is PSD exactly when all of its principal
minors (every index subset, rows = columns) are nonnegative.  That
criterion is decidable over the rationals with no rounding, so it serves
as the independent oracle everything else is measured against.  The cost
is 2^n determinants, capped at n = 12.

Grids are finite tensor products of equally spaced rational points, a
stand-in for "every point of R^d" at desk scale: psd_on_grid reports
where a polynomial matrix fails to be PSD, and check_bundle_equivalence
compares the oracle verdict on A(s) against the diagonal-entry sign
condition of a diagonalization bundle at every grid point.  A correct
bundle produces zero disagreements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .certificates import bundle_certificate_failures
from .errors import DimensionCap, NotSymmetric

_PSD_DIMENSION_CAP = 12
_DEFAULT_GRID_CAP = 100_000


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact rationals, row-major."""

    n: int
    entries: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        entries = tuple(Fraction(e) for e in self.entries)
        if len(entries) != self.n * self.n:
            raise ValueError(f"expected {self.n * self.n} entries, got {len(entries)}")
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i},{j}) out of range for dimension {self.n}")
        return self.entries[i * self.n + j]

    def is_symmetric(self):
        return all(
            self[i, j] == self[j, i] for i in range(self.n) for j in range(i + 1, self.n)
        )


@dataclass(frozen=True)
class GridSpec:
    """Per-axis (low, high, count) triples over exact rationals."""

    axes: tuple
    max_points: int = _DEFAULT_GRID_CAP

    def __post_init__(self):
        axes = tuple(
            (Fraction(low), Fraction(high), int(count)) for low, high, count in self.axes
        )
        if not axes:
            raise ValueError("grid needs at least one axis")
        for low, high, count in axes:
            if count < 1:
                raise ValueError(f"axis count must be at least 1, got {count}")
            if low > high:
                raise ValueError(f"axis has low {low} > high {high}")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def uniform(cls, nvars, low=-10, high=10, count=21):
        return cls(tuple((low, high, count) for _ in range(nvars)))

    @property
    def nvars(self):
        return len(self.axes)

    def total_points(self):
        total = 1
        for _low, _high, count in self.axes:
            total *= count
        return total


@dataclass(frozen=True)
class GridPositivityReport:
    """Where a matrix failed to be PSD on a grid."""

    total_points: int
    psd_count: int
    non_psd_points: tuple

    def __post_init__(self):
        object.__setattr__(self, "non_psd_points", tuple(self.non_psd_points))
        if self.psd_count + len(self.non_psd_points) != self.total_points:
            raise ValueError("report counts are inconsistent")

    def all_psd(self):
        return not self.non_psd_points


@dataclass(frozen=True)
class EquivalenceReport:
    """Oracle-vs-bundle comparison; disagreements are (point, psd, bundle)."""

    total_points: int
    agreements: int
    disagreements: tuple

    def __post_init__(self):
        object.__setattr__(self, "disagreements", tuple(self.disagreements))
        if self.agreements + len(self.disagreements) != self.total_points:
            raise ValueError("report counts are inconsistent")


def eval_matrix(a, point):
    """Evaluate a square polynomial matrix at an exact rational point."""
    if not a.is_square():
        raise ValueError("evaluation target must be square")
    point = tuple(Fraction(c) for c in point)
    if len(point) != a.nvars:
        raise ValueError(f"point has {len(point)} coordinates, matrix has {a.nvars} variables")
    return RationalMatrix(a.rows, tuple(p.evaluate(point) for p in a.entries))


def _det_rational(rows):
    """Exact determinant of a list-of-lists of Fractions, by elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = Fraction(1) / m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            if factor:
                for j in range(k + 1, n):
                    m[i][j] -= factor * m[k][j]
    return det


def psd_rational(m):
    """True iff every principal minor of a symmetric rational matrix is >= 0."""
    if not m.is_symmetric():
        raise NotSymmetric("PSD oracle needs a symmetric matrix")
    if m.n > _PSD_DIMENSION_CAP:
        raise DimensionCap(f"PSD oracle is capped at dimension {_PSD_DIMENSION_CAP}, got {m.n}")
    for size in range(1, m.n + 1):
        for idx in itertools.combinations(range(m.n), size):
            sub = [[m[i, j] for j in idx] for i in idx]
            if _det_rational(sub) < 0:
                return False
    return True


def generate_grid(spec):
    """All grid points in tensor order, as tuples of Fractions.

    Axis values are low + k*(high - low)/(count - 1); a one-point axis
    yields its low endpoint.  Raises when the total exceeds the cap.
    """
    total = spec.total_points()
    if total > spec.max_points:
        raise ValueError(f"grid has {total} points, exceeding the cap {spec.max_points}")
    axis_values = []
    for low, high, count in spec.axes:
        if count == 1:
            axis_values.append([low])
        else:
            step = (high - low) / (count - 1)
            axis_values.append([low + k * step for k in range(count)])
    return tuple(itertools.product(*axis_values))


def psd_on_grid(a, spec):
    """PSD verdicts for a symmetric polynomial matrix at every grid point."""
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    points = generate_grid(spec)
    non_psd = []
    for s in points:
        if not psd_rational(eval_matrix(a, s)):
            non_psd.append(s)
    return GridPositivityReport(len(points), len(points) - len(non_psd), tuple(non_psd))


def check_bundle_equivalence(a, bundle, spec):
    """Compare the PSD oracle on A(s) with the bundle sign condition.

    The bundle must verify against A first (rejected otherwise).  At every
    grid point the oracle verdict psd_rational(A(s)) is compared with
    "all diagonal entries of every branch D at s are >= 0"; both must
    agree everywhere for a correct implementation.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    if bundle_certificate_failures(a, bundle):
        raise ValueError("bundle does not verify against the subject matrix")
    return _compare_on_grid(a, bundle, spec)


def _compare_on_grid(a, bundle, spec):
    """check_bundle_equivalence for a bundle already verified against a."""
    diag_polys = [
        cert.D[k, k] for cert, _trace in bundle.branches for k in range(cert.D.rows)
    ]
    points = generate_grid(spec)
    agreements = 0
    disagreements = []
    for s in points:
        oracle = psd_rational(eval_matrix(a, s))
        bundle_flag = all(p.evaluate(s) >= 0 for p in diag_polys)
        if oracle == bundle_flag:
            agreements += 1
        else:
            disagreements.append((s, oracle, bundle_flag))
    return EquivalenceReport(len(points), agreements, tuple(disagreements))
