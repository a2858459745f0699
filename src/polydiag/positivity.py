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
oracle everything else is measured against.  Its steps are those the
certificates are read off, polymat._bareiss_step's, but their identities
are verified without it, so a faulty step shows as a failed verification
or a disagreement, not as a false agreement.  The oracle is capped at
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
changes neither the PSD verdict nor any sign.  They walk the grid one line
at a time, a line being the points that differ in the last coordinate
only, in generate_grid order: each entry of A is evaluated along a line,
in blocks of at most _LINE_BLOCK points, and each point then hands its
upper triangle, zeros below it, to the elimination.  A bundle's diagonal
entries that equal a triangle entry read its value; the others are
evaluated per point, so that the test stops at the first negative one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, and_, mul

from .arith import _unpacker
from .certificates import bundle_certificate_failures
from .errors import DimensionCap, NotSymmetric
from .polymat import _bareiss_step

_PSD_DIMENSION_CAP = 12
_GRID_CAP = 100_000
# bits of one point's integers, times the point count and alone; see _check_grid_bits
_GRID_BITS_CAP = 2**24
_POINT_BITS_CAP = 2**22
# grid points per block when a line is evaluated; see _grid_sweep
_LINE_BLOCK = 1024
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
        axes = tuple((Fraction(low), Fraction(high), count) for low, high, count in self.axes)
        if not axes:
            raise ValueError("grid needs at least one axis")
        for low, high, count in axes:
            if type(count) is not int:  # int() would truncate 2.9 and pass True
                raise ValueError(f"axis count must be an integer, got {count!r}")
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
    """True iff the symmetric integer matrix whose upper triangle ``rows``
    hold, n lists of n ints read on and above the diagonal only, is PSD.

    Entry k of row k is the pivot p of one symmetric fraction-free
    elimination, whose steps are polymat._bareiss_step's and overwrite rows.
    p < 0 rejects.  p = 0 rejects unless the rest of row k is zero too; a
    zero row is skipped and the last nonzero pivot stays the divisor of the
    next step (1 at first).
    """
    n = len(rows)
    if n > _PSD_DIMENSION_CAP:
        raise DimensionCap(f"PSD oracle is capped at dimension {_PSD_DIMENSION_CAP}, got {n}")
    prev = 1
    for k, row in enumerate(rows):
        p = row[k]
        if p < 0 or not p and any(row[k:]):  # a zero pivot needs a zero row
            return False
        if p:
            _bareiss_step(rows, k, prev, symmetric=True)
            prev = p
    return True


def psd_rational(m):
    """True iff the symmetric rational matrix m is positive semidefinite:
    _psd_int on m times the lcm of its denominators."""
    if not m.is_symmetric():
        raise NotSymmetric(_NOT_SYMMETRIC)
    den = 1
    for e in m.entries:
        den = math.lcm(den, e.denominator)
    ints = [e.numerator * (den // e.denominator) for e in m.entries]
    return _psd_int([ints[k * m.n : (k + 1) * m.n] for k in range(m.n)])


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
    the first point where A(point) is not symmetric, after the triples of
    every earlier point, and ValueError before any point when the integers
    below would be too large (_GRID_BITS_CAP).

    No Fraction is made per point.  With den the lcm of the denominators of
    every polynomial's integer form, top_v the highest exponent of t_v and
    the coordinates num_v/q_v in lowest terms, each polynomial p is
    evaluated as den * prod_v q_v^top_v * p(point), the integer
    sum over terms of c * prod_v num_v^e_v * q_v^(top_v - e_v): a positive
    multiple of p(point), the same multiple for every polynomial.  Only the
    rows of A's upper triangle that _psd_int eliminates are evaluated, and
    below it the entries whose polynomial differs from their mirror's.

    The grid is walked one line at a time, a line being the points that
    share every coordinate but the last.  Once per line each monomial's
    outer factor, the product of its factors on the other axes, is folded
    into its coefficients; then every evaluated entry of A is computed
    along the line, in blocks of at most _LINE_BLOCK points (memory stays
    bounded on a long line), as a sum of coefficient times the last axis's
    factor column, by C-level map over the block.  Each point takes its
    triangle rows out of the block's columns.  An extra polynomial with the
    same scaled terms as a triangle entry reads that entry's value; the
    others, each once, fewest terms first, are evaluated per point inside
    all(), which stops at the first negative one.  Evaluating them along the
    line too would give up that short cut: it made the benchmark's 64-point
    equiv-check sweeps 19 % slower.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    axis_values = _axis_values(spec)
    if not a.is_square():
        raise ValueError("evaluation target must be square")
    n = a.rows
    # A(point) is symmetric iff each (j, i) whose polynomial differs from
    # that of (i, j) takes the same value there
    asym = [(i, j) for i in range(n) for j in range(i + 1, n) if a[j, i]._form != a[i, j]._form]
    polys = [a[i, j] for i in range(n) for j in range(i, n)]
    polys += [a[j, i] for i, j in asym] + list(extra)
    den = math.lcm(*(p._form[0] for p in polys))
    keys, sums = {}, []  # keys: packed monomial -> its index
    for d, pairs in (p._form for p in polys):
        sums.append([(c * (den // d), keys.setdefault(k, len(keys))) for k, c in pairs])
    monos = list(map(_unpacker(a.nvars), keys))
    tops = [max((m[v] for m in monos), default=0) for v in range(a.nvars)]
    # each axis as (numerators, denominators) of its values
    coords = [([x.numerator for x in xs], [x.denominator for x in xs]) for xs in axis_values]
    _check_grid_bits(sums, tops, coords)
    width = n * (n + 1) // 2
    # triangle entry k of row i is column starts[i] + k, and _psd_int gets
    # it after i zeros; a mirror's column follows the triangle's
    starts = list(itertools.accumulate(range(n, 0, -1), initial=0))
    row_slices = [((0,) * i, s, e) for i, (s, e) in enumerate(zip(starts, starts[1:]))]
    mirrors = [(starts[i] + j - i, width + k) for k, (i, j) in enumerate(asym)]
    evaluated = sums[: width + len(asym)]
    # each extra once: a triangle entry's value, or its own terms
    unique = {tuple(s): s for s in sums[width + len(asym) :]}
    entry_at = {tuple(s): k for k, s in enumerate(sums[:width])} if unique else {}
    extra_entries = sorted({entry_at[key] for key in unique if key in entry_at})
    extra_sums = sorted((s for key, s in unique.items() if key not in entry_at), key=len)
    # per outer axis value: the factor it puts in each monomial
    outer_columns = []
    for v, (nums, dens) in enumerate(coords[:-1]):
        columns = _factor_columns(nums, dens, tops[v], [m[v] for m in monos])
        outer_columns.append([[col[x] for col in columns] for x in range(len(nums))])
    # the last axis: per monomial, its factor at each point of the line, in blocks
    nums, dens = coords[-1]
    exps = [m[-1] for m in monos]
    blocks = []
    for start in range(0, len(nums), _LINE_BLOCK):
        part = slice(start, start + _LINE_BLOCK)
        blocks.append((axis_values[-1][part], _factor_columns(nums[part], dens[part], tops[-1], exps)))
    for outer, factors in zip(
        itertools.product(*axis_values[:-1]), itertools.product(*outer_columns)
    ):
        entries, extras = evaluated, extra_sums
        if factors:  # fold the line's outer factors into the coefficients
            folded = factors[0]
            for col in factors[1:]:
                folded = list(map(mul, folded, col))
            entries = [[(c * folded[m], m) for c, m in s] for s in entries]
            extras = [[(c * folded[m], m) for c, m in s] for s in extras]
        for values, columns in blocks:
            size = len(values)
            block = [_along(terms, columns, size) for terms in entries]
            stop = size  # the first point of the block where A is not symmetric
            for k, m in mirrors:
                if block[k] != block[m]:
                    first = next(i for i, (x, y) in enumerate(zip(block[k], block[m])) if x != y)
                    stop = min(stop, first)
            # per point, whether the extras that are triangle entries are >= 0
            entries_ok = [True] * size
            for k in extra_entries:
                entries_ok = list(map(and_, entries_ok, map((0).__le__, block[k])))
            extra_cols = [[(c, columns[m]) for c, m in terms] for terms in extras]
            for i, (x, vals) in enumerate(zip(values[:stop], zip(*block))):
                psd = _psd_int([[*pad, *vals[s:e]] for pad, s, e in row_slices])
                extra_ok = entries_ok[i] and (
                    not extra_cols
                    or all(sum([c * col[i] for c, col in terms]) >= 0 for terms in extra_cols)
                )
                yield (*outer, x), psd, extra_ok
            if stop < size:
                raise NotSymmetric(_NOT_SYMMETRIC)


def _factor_columns(nums, dens, top, exps):
    """Per exponent e of exps, the column of num^e * q^(top - e) over an
    axis's points num/q; each distinct e once, by C-level map."""
    columns = {
        e: list(map(mul, map(pow, nums, itertools.repeat(e)), map(pow, dens, itertools.repeat(top - e))))
        for e in set(exps)
    }
    return [columns[e] for e in exps]


def _along(terms, columns, size):
    """sum of c * columns[m] over the terms (c, m): one polynomial's values
    at the points of a block."""
    if not terms:
        return [0] * size
    (c, m), *rest = terms
    acc = columns[m] if c == 1 else list(map(mul, columns[m], itertools.repeat(c)))
    for c, m in rest:
        acc = list(map(add, acc, columns[m] if c == 1 else map(mul, columns[m], itertools.repeat(c))))
    return acc


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
