"""Dense rectangular matrices of polynomials, with exact determinants.

Entries are Polynomial values sharing one variable count.  Matrices are
immutable; entry access A[i, j] is 0-based, while the index tuples taken by
minor(), leading_principal_minor(), submatrix() and permutation_matrix() are
1-based to match the usual determinant notation.

Determinants and the generic rank share one fully pivoted fraction-free
(Bareiss) elimination: every division along the way is an exact polynomial
division, so no rational functions appear.  The generic rank is the largest
p with some p x p minor that is not the identically-zero polynomial.

Matrix file format: a header line ``rows cols nvars`` followed by
rows*cols polynomial lines in row-major order.  Lines starting with ``#``
and blank lines are ignored.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Polynomial, parse_polynomial
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
        zero = Polynomial.zero(self.nvars)
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i * self.cols + k]
                    b = other.entries[k * other.cols + j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out)

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
        """Determinant of the submatrix with the given 1-based rows and columns.

        Row and column index sets may differ, which is what the triangular
        factor formulas in the diagonalization need.
        """
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
        rank, sign, last = self._eliminate()
        if rank < self.rows:
            return Polynomial.zero(self.nvars)
        return -last if sign < 0 else last

    def generic_rank(self):
        """Rank over the rational-function field.

        A pivot is any entry that is not the identically-zero polynomial, so
        the result does not depend on evaluation points.
        """
        return self._eliminate()[0]

    def _eliminate(self):
        """Fully pivoted fraction-free elimination: (rank, sign, last pivot).

        sign is the parity of the row and column swaps.  For a square
        matrix of full rank, sign * last pivot is the determinant.
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
                return k, sign, prev
            pi, pj = pivot
            if pi != k:
                m[k], m[pi] = m[pi], m[k]
                sign = -sign
            if pj != k:
                for row in m:
                    row[k], row[pj] = row[pj], row[k]
                sign = -sign
            for i in range(k + 1, self.rows):
                for j in range(k + 1, self.cols):
                    # Sylvester's identity guarantees this division is exact
                    m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            prev = m[k][k]
        return min(self.rows, self.cols), sign, prev


def permutation_matrix(n, l, nvars):
    """Identity with rows 1 and l swapped; l is 1-based, so l = 1 gives I."""
    if not 1 <= l <= n:
        raise ValueError(f"row index {l} out of range 1..{n}")
    one = Polynomial.one(nvars)
    zero = Polynomial.zero(nvars)
    perm = list(range(n))
    perm[0], perm[l - 1] = perm[l - 1], perm[0]
    return PolyMatrix(n, n, [one if perm[i] == j else zero for i in range(n) for j in range(n)])


def format_matrix(a):
    """Matrix file text: header line then one polynomial per entry, row-major."""
    lines = [f"{a.rows} {a.cols} {a.nvars}"]
    lines.extend(str(p) for p in a.entries)
    return "\n".join(lines) + "\n"


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_matrix(text):
    """Parse the matrix file format; raises ParseError with a line number."""
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("empty matrix file")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3:
        raise ParseError(f"line {lineno}: header must be 'rows cols nvars', got {header!r}")
    try:
        rows, cols, nvars = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"line {lineno}: header must hold three integers, got {header!r}") from None
    if rows < 1 or cols < 1 or nvars < 1:
        raise ParseError(f"line {lineno}: header values must be positive, got {header!r}")
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
