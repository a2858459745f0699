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
only, in generate_grid order: each evaluated entry of A is computed along
a line, in blocks of at most _LINE_BLOCK points made as the block starts,
and each point then hands its upper triangle to the elimination.  A
bundle's diagonal entries that equal an evaluated entry read its value;
the others are evaluated per point, so that the test stops at the first
negative one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

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


def _axes(spec):
    """Per axis (A, D, E, count): value k of the axis is (A + k*D)/E, with
    E > 0 and gcd(A, D, E) = 1; raises when the grid exceeds the point cap.

    With low = a/d and high = b/d over one denominator d and m = count - 1,
    value k is (a*m + k*(b - a))/(d*m); A, D and E are those integers over
    their gcd.  A one-point axis is low's (numerator, 0, denominator): high
    plays no part in it.
    """
    total, axes = 1, []
    for low, high, count in spec.axes:
        total *= count
        if count == 1:
            high = low
        d = math.lcm(low.denominator, high.denominator)
        a = low.numerator * (d // low.denominator)
        m = max(count - 1, 1)
        A, D, E = a * m, high.numerator * (d // high.denominator) - a, d * m
        h = math.gcd(A, D, E)
        axes.append((A // h, D // h, E // h, count))
    if total > _GRID_CAP:
        raise ValueError(f"grid has {total} points, exceeding the cap {_GRID_CAP}")
    return axes


def _axis_values(spec):
    """Per-axis value lists of the grid, as Fractions; raises when the total
    exceeds the cap."""
    return [[Fraction(A + k * D, E) for k in range(count)] for A, D, E, count in _axes(spec)]


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
    below would be too large (_check_grid_bits).

    Axis v's values are num_v/E_v, num_v = A_v + k*D_v (_axes).  With den
    the lcm of every polynomial's denominator and top_v the highest
    exponent of t_v, each polynomial p is evaluated as den * prod_v
    E_v^top_v * p(point), the sum over p's terms c*t^e of c * den/(p's
    denominator) * prod_v num_v^e_v * E_v^(top_v - e_v): a positive
    multiple of p(point), the same for every polynomial.  Set-up reads each
    entry's integer form once.  Only A's upper triangle is evaluated, and the
    entries below it whose polynomial differs from their mirror's; an extra
    equal to one of those reads its value, the others, each once, fewest
    terms first, are evaluated per point inside all(), which stops at the
    first negative one (along the line, the benchmark's 64-point
    equiv-check sweeps ran 19 % slower).

    The grid is walked one line at a time, the points that share every
    coordinate but the last.  Per line the other axes' factors are folded
    into the coefficients; then the entries are evaluated along the line in
    blocks of at most _LINE_BLOCK points, as sums of coefficient times a
    column of powers, by C-level map.  A block's coordinates and powers are
    made from the integers of _axes as it starts (once for a line of one
    block), so memory is bounded by the block.  Each point hands the rows
    it reads off the block's columns to _psd_int.
    """
    if spec.nvars != a.nvars:
        raise ValueError(f"grid has {spec.nvars} axes, matrix has {a.nvars} variables")
    axes = _axes(spec)
    if not a.is_square():
        raise ValueError("evaluation target must be square")
    n, nvars, entries = a.rows, a.nvars, a.entries
    # A's upper triangle row by row, then each (j, i) whose polynomial differs from that of (i, j)
    asym = [(i, j) for i in range(n) for j in range(i + 1, n) if entries[j * n + i]._form != entries[i * n + j]._form]
    forms = [entries[i * n + j]._form for i in range(n) for j in range(i, n)]
    forms += [entries[j * n + i]._form for i, j in asym]
    evaluated, read = len(forms), []
    if extra:  # each extra once: the value of an evaluated entry, or its own terms
        unique = {(d, *pairs): (d, pairs) for d, pairs in (p._form for p in extra)}
        at = {(d, *pairs): k for k, (d, pairs) in enumerate(forms)}
        read = sorted({at[key] for key in unique if key in at})
        forms += sorted((f for key, f in unique.items() if key not in at), key=lambda f: len(f[1]))
    den = math.lcm(*[d for d, _pairs in forms])
    terms = [pairs if d == den else [(k, c * (den // d)) for k, c in pairs] for d, pairs in forms]
    bits = max([abs(c) for t in terms for _k, c in t], default=0)
    if nvars == 1:  # the key is the exponent
        lasts = {e for t in terms for e, _c in t}
        tops = [max(lasts, default=0)]
    else:
        monos = dict.fromkeys(k for t in terms for k, _c in t)
        exps = list(map(_unpacker(nvars), monos))
        tops = list(map(max, zip(*exps))) or [0] * nvars
    _check_grid_bits(bits.bit_length(), tops, axes)
    *outer, last = axes
    outer_values = [[Fraction(A + k * D, E) for k in range(c)] for A, D, E, c in outer]
    outer_nums = [[A + k * D for k in range(c)] for A, D, _E, c in outer]
    if nvars > 1:  # terms as ((last exponent, monomial), coefficient); per other
        # axis v, each monomial's exponent e_v and E_v^(top_v - e_v)
        index = {k: (e[-1], m) for m, (k, e) in enumerate(zip(monos, exps))}
        terms = [[(index[k], c) for k, c in t] for t in terms]
        lasts = {e[-1] for e in exps}
        outer_exps = list(zip(*exps))[:-1]
        outer_scales = [
            list(map(pow, itertools.repeat(axis[2]), map(sub, itertools.repeat(top), es)))
            for axis, top, es in zip(outer, tops, outer_exps)
        ]
    # row i of the triangle begins at column offsets[i] + i of the block; its
    # columns before that belong to the previous row and are never read
    offsets = [i * (2 * n - i - 1) // 2 for i in range(n)]
    mirrors = [(offsets[i] + j, k) for k, (i, j) in enumerate(asym, n * (n + 1) // 2)]
    starts = range(0, last[3], _LINE_BLOCK)
    blocks = [_block(last, tops[-1], lasts, 0)] if len(starts) == 1 else None
    for line, nums in zip(itertools.product(*outer_values), itertools.product(*outer_nums)):
        line_terms = terms
        if nvars > 1:  # the line's factors of the other axes, folded into the coefficients
            factor = [1] * len(monos)
            for x, es, scale in zip(nums, outer_exps, outer_scales):
                factor = list(map(mul, factor, map(mul, map(pow, itertools.repeat(x), es), scale)))
            line_terms = [[(e, c * factor[m]) for (e, m), c in t] for t in terms]
        for values, powers in blocks or (_block(last, tops[-1], lasts, s) for s in starts):
            block = [_along(t, powers, len(values)) for t in line_terms[:evaluated]]
            stop = len(values)  # the first point of the block where A is not symmetric
            for k, m in mirrors:
                if block[k] != block[m]:
                    stop = min(stop, next(i for i, (x, y) in enumerate(zip(block[k], block[m])) if x != y))
            # per point, whether the extras that are evaluated entries are >= 0
            ok = map(all, zip(*[map((0).__le__, block[k]) for k in read])) if read else itertools.repeat(True)
            own = [[(c, powers[e]) for e, c in t] for t in line_terms[evaluated:]]
            rows = [map(list, zip(*block[o : o + n])) for o in offsets]
            points = zip(*map(itertools.repeat, line), values[:stop])
            for i, point, flag, *m in zip(itertools.count(), points, ok, *rows):
                yield point, _psd_int(m), flag and (
                    not own or all(sum([c * col[i] for c, col in t]) >= 0 for t in own)
                )
            if stop < len(values):
                raise NotSymmetric(_NOT_SYMMETRIC)


def _block(axis, top, exps, start):
    """(coordinates, powers) of the block of at most _LINE_BLOCK points from
    value ``start`` of the axis (A, D, E, count), values (A + k*D)/E: powers
    maps each e of exps to the column of num^e * E^(top - e)."""
    A, D, E, count = axis
    stop = min(start + _LINE_BLOCK, count)
    nums = list(range(A + start * D, A + stop * D, D)) if D else [A] * (stop - start)
    powers = {}
    for e in exps:
        col = map(pow, nums, itertools.repeat(e))
        powers[e] = list(col if E == 1 else map(mul, col, itertools.repeat(E ** (top - e))))
    return list(map(Fraction, nums, itertools.repeat(E)) if E != 1 else map(Fraction, nums)), powers


def _along(terms, powers, size):
    """sum of c * powers[e] over the terms (e, c): one polynomial's values at
    the size points of a block."""
    acc = None
    for e, c in terms:
        col = powers[e] if c == 1 else map(mul, powers[e], itertools.repeat(c))
        acc = col if acc is None else list(map(add, acc, col))
    return [0] * size if acc is None else acc if type(acc) is list else list(acc)


def _check_grid_bits(bits, tops, axes):
    """Raise ValueError when the grid's integers would exceed _GRID_BITS_CAP bits.

    One point's integer has at most about (coefficient bits) + sum_v top_v *
    (bits of the largest |A_v + k*D_v| or E_v) bits, the integers that
    _block and the line factors raise to powers (_axes); that bound times
    the point count is estimated from the axes' endpoints, before any value
    is made or power taken.
    """
    points, total = 1, bits
    for (A, D, E, count), top in zip(axes, tops):
        points *= count
        total += top * max(abs(A), abs(A + (count - 1) * D), E).bit_length()
    if total * points > _GRID_BITS_CAP:
        raise ValueError(
            f"grid evaluation needs about {total * points} integer bits "
            f"({total} per point), exceeding the bound {_GRID_BITS_CAP}"
        )
    if total > _POINT_BITS_CAP:  # the estimate is linear in bits, big powers are not
        raise ValueError(f"one grid point needs about {total} integer bits, exceeding the bound {_POINT_BITS_CAP}")


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
