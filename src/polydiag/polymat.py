"""Dense rectangular matrices of polynomials, with exact determinants.

Entries are Polynomial values sharing one variable count.  Matrices are
immutable; entry access A[i, j] is 0-based, while the index tuples taken by
minor(), leading_principal_minor() and submatrix() are 1-based to match the
usual determinant notation.

Determinants and the generic rank share one fully pivoted fraction-free
(Bareiss) elimination.  Its step _bareiss_step is the package's only
elimination step: the diagonal module's three routes and its block_step
take it in symmetric form.  Every division is exact (Sylvester's
identity), so no rational functions appear.  The generic rank is the
largest p with some p x p minor that is not identically zero.

Matrix file format: a header line ``rows cols nvars`` (nvars at most
MAX_NVARS) followed by rows*cols polynomial lines in row-major order.
Lines starting with ``#`` and blank lines are ignored; integers are ASCII
decimal.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import MAX_NVARS, Polynomial, _decimal_int, parse_polynomial, sum_of_products
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
        nvars = entries[0].nvars
        for p in entries:
            if not isinstance(p, Polynomial):
                raise TypeError("entries must be Polynomial values")
            if p.nvars != nvars:
                raise ValueError("entries must share one variable count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", entries)

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
        nvars = self.nvars
        inner = self.cols
        cols = other.cols
        out = []
        for i in range(self.rows):
            row = self.entries[i * inner : (i + 1) * inner]
            for j in range(cols):
                out.append(sum_of_products(nvars, zip(row, other.entries[j::cols])))
        return PolyMatrix(self.rows, cols, out)

    def congruence(self, m):
        """X*M*X^t for X = self.

        When M is symmetric, so is X*M*X^t: only its upper triangle is
        multiplied, as rows of X*M against rows of X, and then mirrored.  A
        non-symmetric M takes the plain product.
        """
        if not m.is_symmetric():
            return self @ m @ self.transpose()
        xm = self @ m
        nvars = self.nvars
        n = self.rows
        k = self.cols
        x = self.entries
        out = [None] * (n * n)
        for i in range(n):
            row = xm.entries[i * k : (i + 1) * k]
            for j in range(i, n):
                out[i * n + j] = out[j * n + i] = sum_of_products(
                    nvars, zip(row, x[j * k : (j + 1) * k])
                )
        return PolyMatrix(n, n, out)

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
            _bareiss_step(self.nvars, m, k, prev, self.rows, self.cols)
            prev = m[k][k]
        return min(self.rows, self.cols), sign, m


def _bareiss_step(nvars, m, k, prev, rows, cols, symmetric=False):
    """One fraction-free step on the pivot m[k][k], in place.

    m[i][j] becomes (m[k][k]*m[i][j] - m[i][k]*m[k][j]) / prev for k < i < rows
    and k < j < cols, exact (Sylvester) when prev is the previous pivot; a
    symmetric block computes j >= i and mirrors it."""
    pivot_row = m[k]
    for i in range(k + 1, rows):
        row = m[i]
        lead = -row[k]
        for j in range(i if symmetric else k + 1, cols):
            pairs = ((pivot_row[k], row[j]), (lead, pivot_row[j]))
            row[j] = sum_of_products(nvars, pairs).exact_div(prev)
            if symmetric:
                m[j][i] = row[j]


def format_matrix(a):
    """Matrix file text: header line then one polynomial per entry, row-major."""
    lines = [f"{a.rows} {a.cols} {a.nvars}"]
    lines.extend(str(p) for p in a.entries)
    return "\n".join(lines) + "\n"


def _data_lines(text):
    """(lineno, stripped line) per line of text that is neither blank nor a
    ``#`` comment; lineno is 1-based.

    Lines break at \\r\\n, \\r and \\n only, as a universal-newline read
    gives them; str.splitlines() would also break at \\v, \\f, \\x1c-\\x1e,
    \\x85, \\u2028 and \\u2029, which are whitespace inside a line here.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, lines), start=1)
        if line and not line.startswith("#")
    ]


def parse_matrix(text):
    """Parse the matrix file format; raises ParseError with a line number."""
    return _parse_matrix_lines(_data_lines(text))


def _parse_matrix_lines(lines):
    """The matrix whose file has the data lines ``lines``, as _data_lines
    gives them; each ParseError names the line's number."""
    if not lines:
        raise ParseError("empty matrix file")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3:
        raise ParseError(f"line {lineno}: header must be 'rows cols nvars', got {header!r}")
    try:
        rows, cols, nvars = (_decimal_int(f) for f in fields)
    except ValueError:
        raise ParseError(f"line {lineno}: header must hold three integers, got {header!r}") from None
    if rows < 1 or cols < 1 or nvars < 1:
        raise ParseError(f"line {lineno}: header values must be positive, got {header!r}")
    if nvars > MAX_NVARS:
        raise ParseError(f"line {lineno}: nvars {nvars} exceeds the maximum {MAX_NVARS}")
    body = lines[1:]
    if len(body) < rows * cols:
        raise ParseError(f"expected {rows * cols} entries, file ends after {len(body)}")
    if len(body) > rows * cols:
        extra_lineno = body[rows * cols][0]
        raise ParseError(f"line {extra_lineno}: trailing data past {rows * cols} entries")
    entries = []
    for lineno, line in body:
        try:
            entries.append(parse_polynomial(line, nvars))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return PolyMatrix(rows, cols, entries)
