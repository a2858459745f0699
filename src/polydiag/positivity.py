"""Exact pointwise positivity checks for polynomial matrices.

A real symmetric n x n matrix A is PSD exactly when every coefficient of
det(xI + A) = sum_k E_k x^(n-k) is nonnegative, where E_k is the sum of
the k x k principal minors of A (E_k is the k-th elementary symmetric
function of the eigenvalues).  Berkowitz's division-free recursion
(Inf. Process. Lett. 18, 1984) gives those coefficients from the
characteristic polynomial det(xI - A) in O(n^4) integer operations, so
the criterion is decided exactly, with no rounding, on integer matrices;
it serves as the independent oracle everything else is measured against.
The oracle is capped at n = 12.

Grids are finite tensor products of equally spaced rational points, a
stand-in for "every point of R^d" at desk scale: psd_on_grid reports
where a polynomial matrix fails to be PSD, and check_bundle_equivalence
compares the oracle verdict on A(s) against the diagonal-entry sign
condition of a diagonalization bundle at every grid point.  A correct
bundle produces zero disagreements.  The bundle is verified against A
first, once per subject: a bundle the library produced or already checked
against that same matrix is not verified again.  The grid sweeps evaluate
every entry as an integer: A(s) times one positive scalar per point, which
changes neither the PSD verdict nor any sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import _unpacker
from .certificates import bundle_certificate_failures
from .errors import DimensionCap, NotSymmetric

_PSD_DIMENSION_CAP = 12
_GRID_CAP = 100_000
_NOT_SYMMETRIC = "PSD oracle needs a symmetric matrix"


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
    non_psd_points: tuple

    def __post_init__(self):
        object.__setattr__(self, "non_psd_points", tuple(self.non_psd_points))

    @property
    def psd_count(self):
        return self.total_points - len(self.non_psd_points)

    def all_psd(self):
        return not self.non_psd_points


@dataclass(frozen=True)
class EquivalenceReport:
    """Oracle-vs-bundle comparison; disagreements are (point, psd, bundle)."""

    total_points: int
    disagreements: tuple

    def __post_init__(self):
        object.__setattr__(self, "disagreements", tuple(self.disagreements))

    @property
    def agreements(self):
        return self.total_points - len(self.disagreements)


def eval_matrix(a, point):
    """Evaluate a square polynomial matrix at an exact rational point."""
    if not a.is_square():
        raise ValueError("evaluation target must be square")
    point = tuple(Fraction(c) for c in point)
    if len(point) != a.nvars:
        raise ValueError(f"point has {len(point)} coordinates, matrix has {a.nvars} variables")
    return RationalMatrix(a.rows, tuple(p.evaluate(point) for p in a.entries))


def _psd_int(rows):
    """True iff the symmetric integer matrix ``rows`` (a list of rows) is PSD.

    A negative diagonal entry rejects at once.  Otherwise Berkowitz's
    recursion builds det(xI - A_k) for the leading blocks A_1, ..., A_n:
    with A_(k+1) = [[A_k, c], [c^t, a]], its coefficient vector is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -c^t c, -c^t A_k c, ..., -c^t A_k^(k-1) c) times that of A_k.
    Coefficient i of det(xI - A_k) is (-1)^i E_i(A_k), and every principal
    block of a PSD matrix is PSD, so a block with a wrong sign rejects.
    """
    n = len(rows)
    if n > _PSD_DIMENSION_CAP:
        raise DimensionCap(f"PSD oracle is capped at dimension {_PSD_DIMENSION_CAP}, got {n}")
    for i in range(n):
        if rows[i][i] < 0:
            return False
    poly = [1, -rows[0][0]]
    for k in range(1, n):
        row = rows[k]
        # zip stops at len(v) == k: row[:k] is c^t, and rows[i][:k] rows of A_k
        toeplitz = [1, -row[k]]
        v = row[:k]
        for step in range(k):
            toeplitz.append(-sum([x * y for x, y in zip(row, v)]))
            if step + 1 < k:
                v = [sum([x * y for x, y in zip(rows[i], v)]) for i in range(k)]
        poly = [
            sum([toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1)])
            for i in range(k + 2)
        ]
        for i in range(2, k + 2):
            if poly[i] < 0 if i % 2 == 0 else poly[i] > 0:
                return False
    return True


def psd_rational(m):
    """True iff the symmetric rational matrix m is positive semidefinite."""
    if not m.is_symmetric():
        raise NotSymmetric(_NOT_SYMMETRIC)
    den = 1
    for e in m.entries:
        den = math.lcm(den, e.denominator)
    ints = [e.numerator * (den // e.denominator) for e in m.entries]
    return _psd_int([ints[i * m.n : (i + 1) * m.n] for i in range(m.n)])


def _axis_values(spec):
    """Per-axis value lists of the grid; raises when the total exceeds the cap."""
    total = spec.total_points()
    if total > _GRID_CAP:
        raise ValueError(f"grid has {total} points, exceeding the cap {_GRID_CAP}")
    axis_values = []
    for low, high, count in spec.axes:
        if count == 1:
            axis_values.append([low])
        else:
            step = (high - low) / (count - 1)
            axis_values.append([low + k * step for k in range(count)])
    return axis_values


def generate_grid(spec):
    """All grid points in tensor order, as tuples of Fractions.

    Axis values are low + k*(high - low)/(count - 1); a one-point axis
    yields its low endpoint.  Raises when the total exceeds the cap.
    """
    return tuple(itertools.product(*_axis_values(spec)))


def _grid_sweep(a, extra, spec):
    """Yield (point, psd, extra_ok) at every grid point, in generate_grid order.

    psd is the oracle verdict on A(point) and extra_ok says whether every
    polynomial of ``extra`` is >= 0 at the point.  Raises NotSymmetric at
    the first point where A(point) is not symmetric.

    No Fraction is made per point.  With den the lcm of the denominators of
    every polynomial's integer form, top_v the highest exponent of t_v and
    the coordinates num_v/q_v in lowest terms, each polynomial p is
    evaluated as den * prod_v q_v^top_v * p(point), the integer
    sum over terms of c * prod_v num_v^e_v * q_v^(top_v - e_v): a positive
    multiple of p(point), the same multiple for every polynomial.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    axis_values = _axis_values(spec)
    if not a.is_square():
        raise ValueError("evaluation target must be square")
    n = a.rows
    forms = [p._form for p in (*a.entries, *extra)]
    den = 1
    for d, _pairs in forms:
        den = math.lcm(den, d)
    unpack = _unpacker(a.nvars)
    monos = {}
    sums = []
    for d, pairs in forms:
        scale = den // d
        sums.append([(c * scale, monos.setdefault(unpack(k), len(monos))) for k, c in pairs])
    entries, extra_sums = sums[: n * n], sums[n * n :]
    # per axis value x = num/q: the factor num^e * q^(top - e) it puts in each monomial
    axes = []
    for v, values in enumerate(axis_values):
        exps = [m[v] for m in monos]
        top = max(exps, default=0)
        axis = []
        for x in values:
            num, q = x.numerator, x.denominator
            factor = {e: num**e * q ** (top - e) for e in set(exps)}
            axis.append((x, [factor[e] for e in exps]))
        axes.append(axis)
    for combo in itertools.product(*axes):
        mvals = combo[0][1]
        for _x, col in combo[1:]:
            mvals = [f * g for f, g in zip(mvals, col)]
        vals = [sum([c * mvals[m] for c, m in terms]) for terms in entries]
        rows = [vals[i * n : (i + 1) * n] for i in range(n)]
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(_NOT_SYMMETRIC)
        psd = _psd_int(rows)
        extra_ok = all(sum([c * mvals[m] for c, m in terms]) >= 0 for terms in extra_sums)
        yield tuple(x for x, _col in combo), psd, extra_ok


def psd_on_grid(a, spec):
    """PSD verdicts for a symmetric polynomial matrix at every grid point."""
    sweep = list(_grid_sweep(a, (), spec))
    non_psd = tuple(point for point, psd, _extra_ok in sweep if not psd)
    return GridPositivityReport(len(sweep), non_psd)


def check_bundle_equivalence(a, bundle, spec):
    """Compare the PSD oracle on A(s) with the bundle sign condition.

    The bundle must verify against A first (rejected otherwise); a bundle
    already verified against this same A, by diagonalization_bundle or an
    earlier call, is not verified again.  At every grid point the oracle
    verdict psd_rational(A(s)) is compared with "all diagonal entries of
    every branch D at s are >= 0"; both must agree everywhere for a correct
    implementation.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    if bundle_certificate_failures(a, bundle):
        raise ValueError("bundle does not verify against the subject matrix")
    diag_polys = [
        cert.D[k, k] for cert, _trace in bundle.branches for k in range(cert.D.rows)
    ]
    sweep = list(_grid_sweep(a, diag_polys, spec))
    disagreements = tuple(row for row in sweep if row[1] != row[2])
    return EquivalenceReport(len(sweep), disagreements)
