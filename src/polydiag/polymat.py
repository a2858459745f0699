"""Dense rectangular matrices of polynomials, with exact determinants.

Entries are Polynomial values sharing one variable count.  Matrices are
immutable; entry access A[i, j] is 0-based, while the index tuples taken by
minor(), leading_principal_minor() and submatrix() are 1-based to match the
usual determinant notation.

Determinants and the generic rank share one fully pivoted fraction-free
(Bareiss) elimination.  Its step _bareiss_step is the package's only
elimination step: the diagonal module's three routes and block_step, and
the positivity module's PSD oracle, take it in symmetric form, which reads
only the entries on or above the diagonal and mirrors what it writes; it
reads its sizes off its operands.  Every
division is exact (Sylvester's identity), so no rational functions
appear.  The generic rank is the largest p with some p x p minor that is
not identically zero.

identity_holds decides the verifiers' identities, congruence_sum builds
sums X*M*X^t and @ multiplies two matrices, with one product routine,
_sum_of_terms, on one of two rings: integer (Kronecker) images at
t1 = 2^beta in one variable, otherwise Polynomials.  An _ImageContext
carries each factor's bounds, and the producers' seeded images, across the
identities of one verification.

Matrix file format: a header line ``rows cols nvars`` (nvars at most
MAX_NVARS) followed by rows*cols polynomial lines in row-major order.
Lines starting with ``#`` and blank lines are ignored; integers are ASCII
decimal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat
from operator import add, mul

from .arith import (
    MAX_NVARS, Polynomial, _decimal_int, _from_image, _image_bounds, _images, parse_polynomial, sum_of_products
)
from .errors import ParseError


class PolyMatrix:
    """Immutable rows x cols matrix of Polynomial entries."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        nvars = getattr(entries[0], "nvars", None)  # the loop refuses a non-Polynomial
        for p in entries:
            if not isinstance(p, Polynomial):
                raise TypeError("entries must be Polynomial values")
            if p.nvars != nvars:
                raise ValueError("entries must share one variable count")
        self._set(rows, cols, nvars, entries)

    def _set(self, rows, cols, nvars, entries):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _parsed(cls, rows, cols, nvars, entries):
        """PolyMatrix(rows, cols, entries) of a parser's Polynomials, without its checks."""
        m = object.__new__(cls)
        m._set(rows, cols, nvars, tuple(entries))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        if rows == 0:
            raise ValueError("no rows")
        cols = len(rows_of_entries[0])
        flat = []
        for row in rows_of_entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n, nvars):
        one = Polynomial.one(nvars)
        zero = Polynomial.zero(nvars)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols, nvars):
        zero = Polynomial.zero(nvars)
        return cls(rows, cols, [zero] * (rows * cols))

    @classmethod
    def diagonal(cls, diag_entries):
        diag_entries = list(diag_entries)
        n = len(diag_entries)
        if n == 0:
            raise ValueError("no diagonal entries")
        zero = Polynomial.zero(diag_entries[0].nvars)
        return cls(n, n, [diag_entries[i] if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in self.row(i)) for i in range(self.rows))
        return f"PolyMatrix({self.rows}x{self.cols}, [{body}])"

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols) or self.nvars != other.nvars:
            raise ValueError("dimension or variable-count mismatch in matrix addition")
        return PolyMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PolyMatrix(self.rows, self.cols, [-p for p in self.entries])

    def __mul__(self, scalar):
        # scalar multiple only; matrix products use @
        if isinstance(scalar, (int, Fraction)):
            scalar = Polynomial.const(self.nvars, scalar)
        if not isinstance(scalar, Polynomial):
            return NotImplemented
        return PolyMatrix(self.rows, self.cols, [scalar * p for p in self.entries])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch in matrix product")
        return PolyMatrix(self.rows, other.cols, _polynomial_sum([(self, other)], self.nvars))

    def transpose(self):
        return PolyMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    # -- predicates ------------------------------------------------------

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(p.is_zero() for p in self.entries)

    def is_symmetric(self):
        if not self.is_square():
            return False
        return all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_diagonal(self):
        if not self.is_square():
            return False
        return all(
            self[i, j].is_zero() for i in range(self.rows) for j in range(self.cols) if i != j
        )

    def diagonal_entries(self):
        if not self.is_square():
            raise ValueError("not square")
        return tuple(self[i, i] for i in range(self.rows))

    # -- minors and rank -------------------------------------------------

    def _check_index_tuple(self, idx, bound, what):
        if len(idx) == 0:
            raise ValueError(f"{what} index tuple is empty")
        if any(not 1 <= k <= bound for k in idx):
            raise ValueError(f"{what} indices {idx} out of range 1..{bound}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{what} indices {idx} are not strictly ascending")

    def submatrix(self, row_idx, col_idx):
        """Submatrix selected by 1-based, strictly ascending index tuples."""
        row_idx = tuple(row_idx)
        col_idx = tuple(col_idx)
        self._check_index_tuple(row_idx, self.rows, "row")
        self._check_index_tuple(col_idx, self.cols, "column")
        return PolyMatrix(
            len(row_idx),
            len(col_idx),
            [self[i - 1, j - 1] for i in row_idx for j in col_idx],
        )

    def minor(self, row_idx, col_idx):
        """Determinant of the submatrix with the given 1-based rows and
        columns; the two index sets may differ."""
        row_idx = tuple(row_idx)
        col_idx = tuple(col_idx)
        if len(row_idx) != len(col_idx):
            raise ValueError(f"minor needs equally many rows and columns, got {row_idx} / {col_idx}")
        return self.submatrix(row_idx, col_idx).determinant()

    def leading_principal_minor(self, p):
        """Minor over rows and columns 1..p."""
        if not self.is_square():
            raise ValueError("leading principal minors need a square matrix")
        if not 1 <= p <= self.rows:
            raise ValueError(f"order {p} out of range 1..{self.rows}")
        idx = tuple(range(1, p + 1))
        return self.minor(idx, idx)

    def determinant(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rank, sign, work = self._eliminate()
        if rank < self.rows:
            return Polynomial.zero(self.nvars)
        return -work[-1][-1] if sign < 0 else work[-1][-1]

    def generic_rank(self):
        """Rank over the rational-function field.

        A pivot is any entry that is not the identically-zero polynomial, so
        the result does not depend on evaluation points.
        """
        return self._eliminate()[0]

    def _eliminate(self):
        """Fully pivoted fraction-free elimination: (rank, sign, work).

        sign is the parity of the swaps and work the working matrix (rows of
        entries); for a square matrix of full rank, sign * work[n-1][n-1] is
        the determinant.
        """
        m = [list(self.row(i)) for i in range(self.rows)]
        prev = Polynomial.one(self.nvars)
        sign = 1
        for k in range(min(self.rows, self.cols)):
            pivot = next(
                (
                    (i, j)
                    for i in range(k, self.rows)
                    for j in range(k, self.cols)
                    if not m[i][j].is_zero()
                ),
                None,
            )
            if pivot is None:
                return k, sign, m
            pi, pj = pivot
            if pi != k:
                m[k], m[pi] = m[pi], m[k]
                sign = -sign
            if pj != k:
                for row in m:
                    row[k], row[pj] = row[pj], row[k]
                sign = -sign
            _bareiss_step(m, k, prev)
            prev = m[k][k]
        return min(self.rows, self.cols), sign, m


def congruence_sum(n, nvars, terms):
    """The n x n sum of X*M*X^t over the pairs (X, M) of terms, each X with
    n rows and each M square, None standing for the identity: the product
    routine on Polynomials (upper triangle only when every M is symmetric)."""
    for x, m in terms:
        if x.rows != n or (m is not None and m.rows != m.cols):
            raise ValueError(f"X*M*X^t needs an X with {n} rows and a square M")
    out = _polynomial_sum([(x, T) if m is None else (x, m, T) for x, m in terms], nvars)
    return PolyMatrix.zeros(n, n, nvars) if out is None else PolyMatrix(n, n, out)


# identity_holds decides on Polynomials an identity whose images would
# pass this many bits: beta * (largest term degree + 1) * (most entries of
# a factor).  The test suite and the benchmark stay below 2^19; one product
# of two 2^20-bit integers takes about 0.2 s.
_IMAGE_BITS_CAP = 2**20

# the last factor of a term X*...*X^t: its first matrix, transposed
T = "T"


class _ImageContext:
    """The factors of one verification, each bounded once: records keyed by
    id(f), (f, scale, bound, degree, forms, image).

    Holding f keeps its id from being reused while the context lives.  A
    one-variable factor's scale S makes S*p integral for each entry p, bound
    bounds the l1 norm of every S*p and degree their degrees.  A fresh record
    has S the lcm of the denominators and the forms that _images reads
    (arith._image_bounds); a seeded one (seed) holds, as image, the integers
    S*p(2^beta) of its entries, row-major, at the context's beta.  symmetric
    is the subject last found symmetric in this context, so that the
    branches of a bundle, or a producer and its check, test it once.  A
    producer's context is its walk's ring, beta set by diagonal._packed: lcm
    is the lcm L of the subject's denominators, one and zero are ints, or
    Polynomials at beta 0.
    """

    __slots__ = ("beta", "factors", "symmetric", "lcm", "one", "zero")

    def __init__(self):
        self.beta = 0
        self.factors = {}
        self.symmetric = None
        self.lcm, self.one, self.zero = 1, 1, 0

    def poly(self, value, power):
        """The Polynomial of a walk's entry over L^power."""
        if not self.beta:
            return value
        return _from_image(value, self.beta, self.lcm**power)

    def seed(self, f, scale, bound, degree, image):
        self.factors[id(f)] = (f, scale, bound, degree, None, image)

    def diagonal(self, scalar, n):
        """PolyMatrix.diagonal([scalar] * n), seeded when scalar is."""
        mat = PolyMatrix.diagonal([scalar] * n)
        record = self.factors.get(id(scalar))
        if record is not None and record[5] is not None:
            value = record[5][0]
            self.seed(mat, *record[1:4], [value if i == j else 0 for i in range(n) for j in range(n)])
        return mat


def identity_holds(lhs, rhs, images=None):
    """Whether two sums of products are equal.

    A side is a sequence of terms, none for zero; a term is a tuple of
    factors multiplied left to right: Polynomial scalars, PolyMatrix values
    and, last, T for the term's first matrix transposed: X*M*X^t is
    (X, M, T); each side is one _sum_of_terms.  In one variable each factor,
    its entries p under a scale S that makes every S*p integral, becomes the
    integers S*p(2^beta), and the sides, over one common scale, are compared
    as integer matrices.  The factors' l1 bounds times their row counts
    bound every coefficient of the common scale times lhs - rhs by
    B < 2^(beta-1); such an integer polynomial vanishes at 2^beta only if it
    is zero (balanced base-2^beta digits), so the test is exact, and so it
    is at any larger beta.

    images, an _ImageContext, shares each factor's record across the calls
    of one verification; without one, each call bounds its factors afresh.
    When every factor has a seed there and B gives a beta no larger than
    the context's, the seeds decide the identity at the context's beta;
    otherwise each factor is imaged afresh, under its record's scale, at
    B's own beta.  More variables, or images past _IMAGE_BITS_CAP, take the
    ring of Polynomials: the same terms, multiplied by sparse products.
    """
    records = {} if images is None else images.factors
    used, plans, bounds = {}, ([], []), []
    common, degree, size = 1, 0, 0
    seeded = images is not None
    for side, plan in zip((lhs, rhs), plans):
        for term in side:
            scale = bound = 1
            term_degree, first = 0, None
            for f in term:
                if f is T:  # the term's first matrix, its columns as rows
                    f, rows = first, first.cols
                elif isinstance(f, PolyMatrix):
                    first, rows = first or f, f.rows
                else:
                    rows = 1
                key = id(f)
                r = records.get(key)
                if r is None:
                    if f.nvars != 1:
                        return _sums_agree([_polynomial_sum(side, f.nvars) for side in (lhs, rhs)])
                    lcm, b, d, forms = _image_bounds(_entries(f))
                    r = records[key] = (f, lcm, b, d, forms, None)
                if key not in used:
                    used[key] = r
                    seeded = seeded and r[5] is not None
                    size = max(size, len(r[4] or r[5]))
                scale *= r[1]
                bound *= r[2] * rows
                term_degree += r[3]
            plan.append((term, scale))
            bounds.append(bound)
            common = math.lcm(common, scale)
            degree = max(degree, term_degree)
    beta = sum(common // scale * b for (_t, scale), b in zip(plans[0] + plans[1], bounds)).bit_length() + 1
    if seeded and beta <= images.beta:
        beta = images.beta
    else:
        seeded = False
    if beta * (degree + 1) * size > _IMAGE_BITS_CAP:
        return _sums_agree([_polynomial_sum(side, 1) for side in (lhs, rhs)])
    values = {
        key: r[5] if seeded else _images(r[4] or [p._form for p in _entries(r[0])], r[1], beta)
        for key, r in used.items()
    }
    dots = lambda rows, cols: [[sum(map(mul, r, c)) for c in cols] for r in rows]
    return _sums_agree([_sum_of_terms(plan, common, values, dots) for plan in plans])


def _sums_agree(sums):
    """Whether the entries of two sums, None for an empty one (zero), are equal."""
    return not any(sums[0] or sums[1] or ()) if None in sums else sums[0] == sums[1]


def _entries(f):
    """A factor's entries, row-major: a Polynomial is its one entry."""
    return f.entries if isinstance(f, PolyMatrix) else (f,)


def _sum_of_terms(terms, common, entries, dots):
    """The entries, row-major, of a sum of terms on one ring; None for none.

    terms holds (term, scale) pairs, a term as identity_holds takes it, to
    be multiplied by the integer common // scale; entries maps id(f) to a
    factor's ring entries, row-major; dots(rows, columns) gives the ring's
    dot products of each row with each column.  Scalars scale a term's
    first matrix; a term of scalars only, or of one matrix, is added as it
    is, and the pairs of the others meet in one dot per entry: row i of the
    product of all but the last matrix against column j of the last, in
    the upper triangle only when every term is X*M*X^t, M symmetric or none.
    """
    lone, parts, symmetric = [], [], True
    for term, scale in terms:
        scalars, mats = [common // scale] if scale != common else [], []
        for f in term:
            if type(f) is PolyMatrix:
                mats.append((entries[id(f)], f.cols))
            elif f is not T:
                scalars.append(entries[id(f)][0])
        if not mats:
            lone.append([reduce(mul, scalars)])
            continue
        (x, k), middle = mats[0], mats[1:]
        scaled = list(map(mul, x, repeat(reduce(mul, scalars), len(x)))) if scalars else x
        if not middle and term[-1] is not T:
            lone.append(scaled)
            continue
        rows = [scaled[i : i + k] for i in range(0, len(x), k)]
        if term[-1] is T:  # X^t's columns are X's rows
            columns = rows if scaled is x else [x[i : i + k] for i in range(0, len(x), k)]
            symmetric = symmetric and len(middle) < 2
        else:
            r, c = middle.pop()
            columns, symmetric = [r[j::c] for j in range(c)], False
        for m, c in middle:
            cols = [m[j::c] for j in range(c)]
            symmetric = symmetric and sum(cols, []) == m  # M's columns are its rows
            rows = dots(rows, cols)
        parts.append((rows, columns))
    if parts:  # row i of each product joined, and column j of each last matrix
        rows, columns = parts[0] if len(parts) == 1 else (
            [sum(lines, []) for lines in zip(*side)] for side in zip(*parts))
        n = len(columns)
        if symmetric and not lone:
            out = [None] * (n * n)
            for i, row in enumerate(rows):  # row i from the diagonal on, and column i down
                out[i * n + i : (i + 1) * n] = out[i * n + i :: n] = dots((row,), columns[i:])[0]
        else:
            out = [*chain.from_iterable(dots(rows, columns))]
        lone.append(out)
    return lone[0] if len(lone) == 1 else [*reduce(partial(map, add), lone)] if lone else None


def _polynomial_sum(terms, nvars):
    """_sum_of_terms on Polynomials: one sum_of_products per dot."""
    entries = {id(f): list(_entries(f)) for term in terms for f in term if f is not T}
    dots = lambda rows, cols: [[sum_of_products(nvars, zip(r, c)) for c in cols] for r in rows]
    return _sum_of_terms([(term, 1) for term in terms], 1, entries, dots)


def _bareiss_step(m, k, prev, symmetric=False):
    """One fraction-free step on the pivot m[k][k], in place.

    m[i][j] becomes (m[k][k]*m[i][j] - m[i][k]*m[k][j]) / prev for each row
    i > k and column j > k of m, exact (Sylvester) when prev is the previous
    pivot.  A symmetric step reads m[k][i] for m[i][k] and computes j >= i
    only, mirrored where j is a row of m: it reads no entry below the
    diagonal, which may hold anything.  The entries are Polynomials, prev's
    variable count, or all Python ints, the integer images of one-variable
    polynomials (diagonal._walk), whose exact quotient is the image of the
    polynomials' quotient.  A zero entry
    whose two products are both zero is left as it is."""
    rows = len(m)
    if k + 1 == rows:  # no row below the pivot
        return
    pivot_row = m[k]
    pivot = pivot_row[k]
    mirror = rows if symmetric else 0  # below the diagonal, column j < mirror of row i is m[j][i]
    nvars = prev.nvars if isinstance(prev, Polynomial) else None
    for i in range(k + 1, rows):
        row = m[i]
        lead = -pivot_row[i] if symmetric else -row[k]
        for j in range(i if symmetric else k + 1, len(row)):
            x = row[j]
            if x or lead and pivot_row[j]:
                if nvars is None:
                    row[j] = x = (pivot * x + lead * pivot_row[j]) // prev
                else:
                    row[j] = x = sum_of_products(nvars, ((pivot, x), (lead, pivot_row[j]))).exact_div(prev)
                if j < mirror:
                    m[j][i] = x


def format_matrix(a):
    """Matrix file text: header line then one polynomial per entry, row-major."""
    return "\n".join(_matrix_lines(a)) + "\n"


def _matrix_lines(a):
    """Matrix file text as lines, also a certificate's matrix section's."""
    return [f"{a.rows} {a.cols} {a.nvars}", *map(str, a.entries)]


def _data_lines(text):
    """(lines, lineno): the stripped lines of text that are neither blank nor
    a ``#`` comment, and lineno(k), the 1-based line number of lines[k],
    counted only when a ParseError asks for it.

    Lines break at \\r\\n, \\r and \\n only, as a universal-newline read
    gives them; str.splitlines() would also break at \\v, \\f, \\x1c-\\x1e,
    \\x85, \\u2028 and \\u2029, which are whitespace inside a line here.
    """
    raw = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [line for line in map(str.strip, raw) if line and line[0] != "#"]

    def lineno(k):
        return [n for n, line in enumerate(map(str.strip, raw), 1) if line and line[0] != "#"][k]

    return lines, lineno


def parse_matrix(text):
    """Parse the matrix file format; raises ParseError with a line number."""
    lines, lineno = _data_lines(text)
    return _parse_matrix_lines(lines, _LineMemo(), lineno)


class _LineMemo(dict):
    """One parse call's parsed lines: header line (a str) -> (rows, cols,
    nvars), (nvars, line) -> parse_polynomial(line, nvars), and (read, line)
    -> read(line) for another line reader, such as a certificate's trace
    lines', parsed at the first lookup.  A line that fails is not stored,
    so it fails at its first occurrence; the values are immutable, so
    repeated lines share one."""

    def __missing__(self, key):
        if type(key) is str:
            value = _matrix_shape(key)
        else:
            how, line = key
            value = parse_polynomial(line, how) if type(how) is int else how(line)
        self[key] = value
        return value


def _matrix_shape(header):
    """(rows, cols, nvars) of a matrix header line."""
    fields = header.split()
    if len(fields) != 3:
        raise ParseError(f"header must be 'rows cols nvars', got {header!r}")
    try:
        rows, cols, nvars = (_decimal_int(f) for f in fields)
    except ValueError:
        raise ParseError(f"header must hold three integers, got {header!r}") from None
    if rows < 1 or cols < 1 or nvars < 1:
        raise ParseError(f"header values must be positive, got {header!r}")
    if nvars > MAX_NVARS:
        raise ParseError(f"nvars {nvars} exceeds the maximum {MAX_NVARS}")
    return rows, cols, nvars


def _parse_matrix_lines(lines, memo, lineno=(1).__add__):
    """The matrix whose file has the data lines ``lines``, as _data_lines
    gives them, parsed through memo, a _LineMemo: each distinct header and
    entry line is parsed once per memo, and the entries are taken in one
    pass of lookups.  A ParseError names lineno(k) for lines[k]; by default
    k + 1, as a certificate's matrix section numbers its lines."""
    if not lines:
        raise ParseError("empty matrix file")
    try:
        rows, cols, nvars = memo[lines[0]]
    except ParseError as exc:
        raise ParseError(f"line {lineno(0)}: {exc}") from None
    n = rows * cols
    if len(lines) <= n:
        raise ParseError(f"expected {n} entries, file ends after {len(lines) - 1}")
    if len(lines) > n + 1:
        raise ParseError(f"line {lineno(n + 1)}: trailing data past {n} entries")
    try:
        entries = [memo[nvars, line] for line in lines[1:]]
    except ParseError as exc:
        # every line before the one that failed is in memo now, and it is not
        k = next(k for k, line in enumerate(lines) if k and (nvars, line) not in memo)
        raise ParseError(f"line {lineno(k)}: {exc}") from None
    return PolyMatrix._parsed(rows, cols, nvars, entries)
