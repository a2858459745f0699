"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately written with different algorithms than
the library code they check: determinants by Laplace cofactor expansion
instead of fraction-free elimination, and semidefiniteness by a pivoted
rational LDL^t factorization and by the sign of every principal minor
instead of the characteristic-polynomial criterion.
"""

import itertools
from fractions import Fraction

from polydiag.arith import Polynomial
from polydiag.polymat import PolyMatrix
from polydiag.positivity import RationalMatrix


def rand_poly(rng, nvars, max_deg=2, max_terms=3, coeff_bound=4):
    """Random sparse polynomial with small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[expo] = terms.get(expo, Fraction(0)) + Fraction(c)
    return Polynomial(nvars, terms)


def rand_nonzero_poly(rng, nvars, max_deg=2, max_terms=3, coeff_bound=4):
    while True:
        p = rand_poly(rng, nvars, max_deg, max_terms, coeff_bound)
        if p.terms:
            return p


def rand_poly_total_deg(rng, nvars, total_deg=2, max_terms=3, coeff_bound=3):
    """Random polynomial whose total degree is bounded, not per-variable."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        d = rng.randint(0, total_deg)
        expo = [0] * nvars
        for _ in range(d):
            expo[rng.randrange(nvars)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            key = tuple(expo)
            terms[key] = terms.get(key, Fraction(0)) + Fraction(c)
    return Polynomial(nvars, terms)


def rand_symmetric_total_deg(rng, n, nvars, total_deg=2, max_terms=3, coeff_bound=3):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly_total_deg(rng, nvars, total_deg, max_terms, coeff_bound)
            rows[i][j] = p
            rows[j][i] = p
    return PolyMatrix.from_rows(rows)


def rand_symmetric(rng, n, nvars, max_deg=2, max_terms=2, coeff_bound=3):
    """Random symmetric polynomial matrix."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly(rng, nvars, max_deg, max_terms, coeff_bound)
            rows[i][j] = p
            rows[j][i] = p
    return PolyMatrix.from_rows(rows)


def rand_matrix(rng, rows, cols, nvars, max_deg=2, max_terms=2, coeff_bound=3):
    return PolyMatrix.from_rows(
        [
            [rand_poly(rng, nvars, max_deg, max_terms, coeff_bound) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def rand_fraction(rng, bound=6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def rand_rational_symmetric(rng, n, bound=6):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_fraction(rng, bound)
            entries[i][j] = v
            entries[j][i] = v
    return RationalMatrix(n, [v for row in entries for v in row])


def const_matrix(rows, nvars=1):
    """Build a PolyMatrix of constants from a grid of ints or Fractions."""
    return PolyMatrix.from_rows(
        [[Polynomial.const(nvars, Fraction(v)) for v in row] for row in rows]
    )


def det_cofactor(a):
    """Laplace expansion along the first row. Exponential, test sizes only."""
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return Polynomial.one(a.nvars)
    if n == 1:
        return a[0, 0]
    total = Polynomial.zero(a.nvars)
    cols = list(range(n))
    for j in range(n):
        entry = a[0, j]
        if not entry.terms:
            continue
        keep = [c for c in cols if c != j]
        sub = PolyMatrix.from_rows(
            [[a[i, c] for c in keep] for i in range(1, n)]
        )
        term = entry * det_cofactor(sub)
        if j % 2:
            term = -term
        total = total + term
    return total


def psd_ldlt(a):
    """Exact test for positive semidefiniteness of a rational symmetric matrix.

    Works by pivoted LDL^t elimination: pick the largest diagonal entry as
    pivot; a negative diagonal entry means not PSD; if every diagonal entry
    is zero the matrix must be zero entirely.
    """
    n = a.n
    work = [[Fraction(a[i, j]) for j in range(n)] for i in range(n)]
    idx = list(range(n))
    while idx:
        pivot = max(idx, key=lambda i: work[i][i])
        if work[pivot][pivot] < 0:
            return False
        if work[pivot][pivot] == 0:
            # all remaining diagonal entries are <= 0, hence zero;
            # any nonzero off-diagonal entry now gives a negative 2x2 minor
            for i in idx:
                for j in idx:
                    if work[i][j] != 0:
                        return False
            return True
        d = work[pivot][pivot]
        idx.remove(pivot)
        for i in idx:
            for j in idx:
                work[i][j] -= work[i][pivot] * work[pivot][j] / d
    return True


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


def psd_principal_minors(a):
    """True iff every principal minor (all 2^n - 1 index subsets) of the
    rational symmetric matrix a is >= 0, the definition of PSD-ness."""
    for size in range(1, a.n + 1):
        for idx in itertools.combinations(range(a.n), size):
            if _det_rational([[a[i, j] for j in idx] for i in idx]) < 0:
                return False
    return True
