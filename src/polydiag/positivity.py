"""Exact pointwise positivity checks for polynomial matrices.

A real symmetric n x n matrix A is PSD exactly when symmetric elimination
meets no negative pivot and a zero pivot only in a row that is zero from
the pivot on: a pivot p > 0 leaves the Schur complement C - b b^t / p,
which is PSD iff A is, and a zero pivot with a nonzero entry in its row
gives a 2 x 2 principal minor < 0.  Bareiss's fraction-free elimination
(Math. Comp. 22, 1968) carries every entry as an integer, the Schur
complement times the last nonzero pivot, a positive scalar; by Sylvester's
identity each division is exact.  So the criterion is decided exactly, with
no rounding, in O(n^3) integer operations; it serves as the independent
oracle everything else is measured against.  The oracle is capped at
n = 12.

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
# bits of one point's integers, times the point count and alone; see _check_grid_bits
_GRID_BITS_CAP = 2**24
_POINT_BITS_CAP = 2**22
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


def _psd_int(tri):
    """True iff the symmetric integer matrix with upper triangle ``tri`` is PSD.

    Row k of tri holds a_kj for j >= k, and its first entry is the pivot p
    of one fraction-free symmetric elimination.  p < 0 rejects.  p = 0
    rejects unless the rest of row k is zero too; a zero row is skipped and
    the last nonzero pivot stays the divisor.  Otherwise every later row is
    replaced by a_ij = (p * a_ij - a_ki * a_kj) // prev, with prev the last
    nonzero pivot (1 at first), an exact division.  tri is consumed: its
    rows are replaced as the elimination goes.
    """
    n = len(tri)
    if n > _PSD_DIMENSION_CAP:
        raise DimensionCap(f"PSD oracle is capped at dimension {_PSD_DIMENSION_CAP}, got {n}")
    prev = 1
    for k in range(n):
        pivot_row = tri[k]
        p = pivot_row[0]
        if p < 0:
            return False
        if not p:
            if any(pivot_row):
                return False
            continue
        # pivot_row[i - k:] is a_kj for j >= i, and its first entry a_ki
        for i in range(k + 1, n):
            tail = pivot_row[i - k :]
            c = tail[0]
            tri[i] = [(p * x - c * y) // prev for x, y in zip(tri[i], tail)]
        prev = p
    return True


def psd_rational(m):
    """True iff the symmetric rational matrix m is positive semidefinite:
    _psd_int on the upper triangle of m times the lcm of its denominators."""
    if not m.is_symmetric():
        raise NotSymmetric(_NOT_SYMMETRIC)
    den = 1
    for e in m.entries:
        den = math.lcm(den, e.denominator)
    ints = [e.numerator * (den // e.denominator) for e in m.entries]
    return _psd_int([ints[k * m.n + k : (k + 1) * m.n] for k in range(m.n)])


def _axis_values(spec):
    """Per-axis value lists of the grid; raises when the total exceeds the cap.

    Axis values low + k*(high - low)/(count - 1) are built from integers:
    with low = a/d and high = b/d over one denominator d and m = count - 1
    (1 on a one-point axis, whose one value is then low), value k is
    (a*m + k*(b - a))/(d*m), one Fraction each.
    """
    total = spec.total_points()
    if total > _GRID_CAP:
        raise ValueError(f"grid has {total} points, exceeding the cap {_GRID_CAP}")
    axis_values = []
    for low, high, count in spec.axes:
        d = math.lcm(low.denominator, high.denominator)
        a = low.numerator * (d // low.denominator)
        b = high.numerator * (d // high.denominator)
        m = max(count - 1, 1)
        axis_values.append([Fraction(a * m + k * (b - a), d * m) for k in range(count)])
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
    the first point where A(point) is not symmetric, and ValueError before
    any point when the integers below would be too large (_GRID_BITS_CAP).

    No Fraction is made per point.  With den the lcm of the denominators of
    every polynomial's integer form, top_v the highest exponent of t_v and
    the coordinates num_v/q_v in lowest terms, each polynomial p is
    evaluated as den * prod_v q_v^top_v * p(point), the integer
    sum over terms of c * prod_v num_v^e_v * q_v^(top_v - e_v): a positive
    multiple of p(point), the same multiple for every polynomial.  Only the
    rows of A's upper triangle that _psd_int eliminates are evaluated, and
    below it the entries whose polynomial differs from their mirror's.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    axis_values = _axis_values(spec)
    if not a.is_square():
        raise ValueError("evaluation target must be square")
    n = a.rows
    # A(point) is symmetric iff each (j, i) whose polynomial differs from
    # that of (i, j) takes the same value there
    asym = [(i, j) for i in range(n) for j in range(i + 1, n) if a[j, i] != a[i, j]]
    polys = [a[i, j] for i in range(n) for j in range(i, n)]
    polys += [a[j, i] for i, j in asym] + list(extra)
    den = 1
    for p in polys:
        den = math.lcm(den, p._form[0])
    unpack = _unpacker(a.nvars)
    monos = {}
    sums = []
    for p in polys:
        d, pairs = p._form
        scale = den // d
        sums.append([(c * scale, monos.setdefault(unpack(k), len(monos))) for k, c in pairs])
    rest = iter(sums)
    # row k of the triangle: the sums of a_kj for j >= k
    tri_sums = [list(itertools.islice(rest, n - k)) for k in range(n)]
    # each mirror's sum, and where (i, j) stands in the triangle
    checks = [(next(rest), i, j - i) for i, j in asym]
    extra_sums = list(rest)
    tops = [max((m[v] for m in monos), default=0) for v in range(a.nvars)]
    # each axis as (numerators, denominators) of its values
    coords = [([x.numerator for x in xs], [x.denominator for x in xs]) for xs in axis_values]
    _check_grid_bits(sums, tops, coords)
    # per axis value x = num/q: the factor num^e * q^(top - e) it puts in each monomial
    axis_columns = []
    for v, (nums, dens) in enumerate(coords):
        exps = [m[v] for m in monos]
        distinct = set(exps)
        top = tops[v]
        columns = []
        for num, q in zip(nums, dens):
            factor = {e: num**e * q ** (top - e) for e in distinct}
            columns.append([factor[e] for e in exps])
        axis_columns.append(columns)
    points = itertools.product(*axis_values)
    for point, (mvals, *more) in zip(points, itertools.product(*axis_columns)):
        for col in more:
            mvals = [f * g for f, g in zip(mvals, col)]
        tri = [[sum([c * mvals[m] for c, m in terms]) for terms in row] for row in tri_sums]
        for terms, i, j in checks:
            if sum([c * mvals[m] for c, m in terms]) != tri[i][j]:
                raise NotSymmetric(_NOT_SYMMETRIC)
        psd = _psd_int(tri)
        extra_ok = all(sum([c * mvals[m] for c, m in terms]) >= 0 for terms in extra_sums)
        yield point, psd, extra_ok


def _check_grid_bits(sums, tops, coords):
    """Raise ValueError when the grid's integers would exceed _GRID_BITS_CAP bits.

    One point's integer has at most about (coefficient bits) +
    sum_v top_v * (bits of the largest num_v or q_v on axis v) bits; that
    bound times the point count is estimated before any power is taken.
    """
    bits = max((abs(c) for terms in sums for c, _m in terms), default=0).bit_length()
    points = 1
    for top, (nums, dens) in zip(tops, coords):
        bits += top * max(max(nums), -min(nums), max(dens)).bit_length()
        points *= len(nums)
    if bits * points > _GRID_BITS_CAP:
        raise ValueError(
            f"grid evaluation needs about {bits * points} integer bits "
            f"({bits} per point), exceeding the bound {_GRID_BITS_CAP}"
        )
    if bits > _POINT_BITS_CAP:  # the estimate is linear in bits, big powers are not
        raise ValueError(f"one grid point needs about {bits} integer bits, exceeding the bound {_POINT_BITS_CAP}")


def psd_on_grid(a, spec):
    """PSD verdicts for a symmetric polynomial matrix at every grid point;
    only the non-PSD points are kept as the sweep streams, the count is the grid's."""
    non_psd = tuple(point for point, psd, _extra_ok in _grid_sweep(a, (), spec) if not psd)
    return GridPositivityReport(spec.total_points(), non_psd)


def check_bundle_equivalence(a, bundle, spec):
    """Compare the PSD oracle on A(s) with the bundle sign condition.

    The bundle must verify against A first (rejected otherwise); a bundle
    already verified against this same A, by diagonalization_bundle or an
    earlier call, is not verified again.  At every grid point the oracle
    verdict, _psd_int on the upper triangle of A(s) in integers, is compared
    with "all diagonal entries of every branch D at s are >= 0"; both must
    agree everywhere.  Only disagreements are kept; the count is the grid's.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    if bundle_certificate_failures(a, bundle):
        raise ValueError("bundle does not verify against the subject matrix")
    diag_polys = [
        cert.D[k, k] for cert, _trace in bundle.branches for k in range(cert.D.rows)
    ]
    disagreements = tuple(row for row in _grid_sweep(a, diag_polys, spec) if row[1] != row[2])
    return EquivalenceReport(spec.total_points(), disagreements)
