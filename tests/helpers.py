"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately written with different algorithms than
the library code they check: determinants by Laplace cofactor expansion
instead of fraction-free elimination, semidefiniteness by a pivoted
rational LDL^t factorization, by the sign of every principal minor and by
the characteristic polynomial (Berkowitz) instead of the oracle's
fraction-free symmetric elimination, and the pivot routes' branches by the
paper's block step instead of one fraction-free elimination per branch.
"""

import itertools
from fractions import Fraction

from polydiag.arith import Polynomial, sum_of_products
from polydiag.diagonal import pivot_congruence
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


def psd_berkowitz(rows):
    """True iff the symmetric integer matrix ``rows`` (a list of rows) is PSD.

    A real symmetric A is PSD exactly when every coefficient of
    det(xI + A) = sum_k E_k x^(n-k) is nonnegative, where E_k is the sum of
    the k x k principal minors of A.  A negative diagonal entry rejects at
    once.  Otherwise Berkowitz's division-free recursion (Inf. Process.
    Lett. 18, 1984) builds det(xI - A_k) for the leading blocks A_1, ...,
    A_n: with A_(k+1) = [[A_k, c], [c^t, a]], its coefficient vector is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -c^t c, -c^t A_k c, ..., -c^t A_k^(k-1) c) times that of A_k.
    Coefficient i of det(xI - A_k) is (-1)^i E_i(A_k), and every principal
    block of a PSD matrix is PSD, so a block with a wrong sign rejects.
    O(n^4) integer operations, and no dimension cap.
    """
    n = len(rows)
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


def _paper_block_step(a):
    """(Atilde, X_plus, X_minus, alpha): A -> diag(alpha^3, alpha*(alpha*C - beta^t*beta))."""
    n = a.rows
    nvars = a.nvars
    zero = Polynomial.zero(nvars)
    alpha = a[0, 0]
    beta = [a[0, k] for k in range(1, n)]
    atilde = [[zero] * n for _ in range(n)]
    atilde[0][0] = alpha * alpha * alpha
    for p in range(1, n):
        for q in range(p, n):
            inner = sum_of_products(nvars, ((alpha, a[p, q]), (-beta[p - 1], beta[q - 1])))
            atilde[p][q] = atilde[q][p] = alpha * inner

    def corner(sign):
        rows = [[zero] * n for _ in range(n)]
        rows[0][0] = alpha
        for p in range(1, n):
            rows[p][0] = sign * beta[p - 1]
            rows[p][p] = alpha
        return PolyMatrix.from_rows(rows)

    return PolyMatrix.from_rows(atilde), corner(1), corner(-1), alpha


def _embed_kept(small, size, kept, fill_diag):
    """Place a matrix on the kept indices; fill dropped diagonal slots."""
    zero = Polynomial.zero(small.nvars)
    rows = [[zero] * size for _ in range(size)]
    for p, ip in enumerate(kept):
        for q, iq in enumerate(kept):
            rows[ip][iq] = small[p, q]
    for d in range(size):
        if d not in kept:
            rows[d][d] = fill_diag
    return PolyMatrix.from_rows(rows)


def _pivot_inverse(n, i, j, nvars):
    """V^-1 for the pivot move V of pivot_congruence(., i, j)."""
    ident = PolyMatrix.identity(n, nvars)
    _a, p_i, _scale = pivot_congruence(ident, i, i)
    if i == j:
        return p_i
    rows = [list(ident.row(r)) for r in range(n)]
    rows[i - 1][j - 1] = -Polynomial.one(nvars)
    return PolyMatrix.from_rows(rows) @ p_i


def paper_branches(m, bundle):
    """Branch tuples (D, X_plus, X_minus, w, pivots, scales) by the paper's block step.

    The reference for the pivot routes' traces: the same pivot choices,
    compactions and branch order as diagonal.diagonalization_bundle (bundle)
    and single_path_diagonalize, but each level's trailing block is
    alpha*(alpha*C - beta^t*beta) and the certificates are composed level by
    level, so w is the product of the squared corners.
    """
    n = m.rows
    nvars = m.nvars
    one = Polynomial.one(nvars)
    if n == 1 or m.is_zero():
        ident = PolyMatrix.identity(n, nvars)
        return [(m, ident, ident, one, (), ())]

    def averaged(i, j):
        return m[i - 1, j - 1] + Fraction(1, 2) * (m[i - 1, i - 1] + m[j - 1, j - 1])

    pivots = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    if not bundle:
        pivots = [next(p for p in pivots if not averaged(*p).is_zero())]
    size = n - 1
    corner_free = range(1, n)
    out = []
    for i, j in pivots:
        a_piv, v, scale = pivot_congruence(m, i, j)
        at, xp, xm, alpha = _paper_block_step(a_piv)
        trailing = at.submatrix(tuple(range(2, n + 1)), tuple(range(2, n + 1)))
        kept = list(range(size))
        if bundle and not trailing.is_zero():
            kept = [k for k in kept if any(not trailing[k, q].is_zero() for q in range(size))]
        if len(kept) < size:
            idx = tuple(k + 1 for k in kept)
            trailing = trailing.submatrix(idx, idx)
        for d_b, xp_b, xm_b, w_b, pivots_b, scales_b in paper_branches(trailing, bundle):
            if len(kept) < size:
                d_b = _embed_kept(d_b, size, kept, Polynomial.zero(nvars))
                xm_b = _embed_kept(xm_b, size, kept, one)
                xp_b = _embed_kept(xp_b, size, kept, w_b)
            out.append(
                (
                    _embed_kept(d_b, n, corner_free, at[0, 0]),
                    _pivot_inverse(n, i, j, nvars) @ xp @ _embed_kept(xp_b, n, corner_free, w_b),
                    _embed_kept(xm_b, n, corner_free, one) @ xm @ v,
                    alpha * alpha * w_b,
                    ((i, j),) + pivots_b,
                    (scale,) + scales_b,
                )
            )
    return out


def count_calls(monkeypatch, name, modules):
    """Count calls to the function ``name`` wherever ``modules`` look it up."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


# Certificates of tests/golden/a.mat as the producers once wrote them (the
# single path and bundle with w = m^2), pinned so that tests about the file
# format do not change when a construction change regenerates the goldens.
DIAG_SINGLE = """\
# generated-by polydiag 0.1.0
[meta]
kind diag
dim 2
nvars 1
[matrix X_plus]
2 2 1
t1^2
0
t1
t1
[matrix X_minus]
2 2 1
1
0
-1
t1
[matrix D]
2 2 1
t1
0
0
t1^3 - t1
[poly w]
t1^2
"""

DIAG_BUNDLE = """\
# generated-by polydiag 0.1.0
[meta]
kind bundle
dim 2
nvars 1
branches 3
[matrix D_1]
2 2 1
t1
0
0
t1^3 - t1
[matrix X_plus_1]
2 2 1
t1^2
0
t1
t1
[matrix X_minus_1]
2 2 1
1
0
-1
t1
[poly w_1]
t1^2
[trace 1]
1 1 1/1
[matrix D_2]
2 2 1
2*t1 + 2
0
0
2*t1^3 + 2*t1^2 - 2*t1 - 2
[matrix X_plus_2]
2 2 1
2*t1^2 + 4*t1 + 2
-2*t1 - 2
2*t1^2 + 4*t1 + 2
2*t1 + 2
[matrix X_minus_2]
2 2 1
1
1
-t1 - 1
t1 + 1
[poly w_2]
4*t1^2 + 8*t1 + 4
[trace 2]
1 2 2/1
[matrix D_3]
2 2 1
t1
0
0
t1^3 - t1
[matrix X_plus_3]
2 2 1
t1
t1
t1^2
0
[matrix X_minus_3]
2 2 1
0
1
t1
-1
[poly w_3]
t1^2
[trace 3]
2 2 1/1
"""

EQUIV = """\
# generated-by polydiag 0.1.0
[meta]
kind equiv
dim 2
nvars 1
s1_squares 1
s2_squares 1
[matrix subject_b]
2 2 1
t1
0
0
t1^3 - t1
[poly s1]
t1^4
[poly s1_sq_1]
t1^2
[poly s2]
1
[poly s2_sq_1]
1
[poly z]
t1^2
[matrix x_plus]
2 2 1
t1^2
0
t1
t1
[matrix x_minus]
2 2 1
1
0
-1
t1
"""
