"""Exact congruence diagonalization of symmetric polynomial matrices.

Three routes.  Each checks every certificate it returns exactly once,
against its subject, with diag_certificate_failures; the block steps inside
the pivot recursion are not checked on their own:

- standard_form_diagonalize: one closed-form certificate from leading
  principal minors, for matrices in standard form (rank r with
  M_1, ..., M_r all nonzero).
- single_path_diagonalize: one certificate for any nonzero symmetric
  matrix, by recursively pivoting on the first position whose averaged
  pivot value is not identically zero.
- diagonalization_bundle: every pivot choice at every level, giving a
  family of certificates D_l with the pointwise property that A(s) is PSD
  exactly when all diagonal entries of all D_l(s) are nonnegative.

The pivot move is rational: to bring position (i, j) to the corner, row j
is added to row i (for i < j) and rows 1 and i are swapped.  The resulting
corner entry is a_ii + 2*a_ij + a_jj = 2*(a_ij + (a_ii + a_jj)/2), twice
the averaged pivot value, and the factor 2 is positive so no pointwise
sign condition changes.  The congruence has determinant +-1 and an integer
inverse, so certificates stay polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Polynomial, sum_of_products
from .certificates import DiagBundle, DiagCertificate, PivotTrace, diag_certificate_failures
from .errors import (
    BundleTooLarge,
    InternalIdentityFailure,
    NotStandardForm,
    NotSymmetric,
    ZeroMatrix,
)
from .polymat import PolyMatrix, permutation_matrix


@dataclass(frozen=True)
class StandardFormData:
    """Generic rank plus the r nonzero leading principal minors."""

    rank: int
    minors: tuple  # (M_1, ..., M_r)

    def __post_init__(self):
        object.__setattr__(self, "minors", tuple(self.minors))
        if self.rank != len(self.minors):
            raise ValueError("rank and minor count differ")


def _require_symmetric(a):
    if not a.is_symmetric():
        raise NotSymmetric("matrix must be symmetric")


def _standard_form(a):
    """(StandardFormData, working matrix of PolyMatrix._eliminate) for a."""
    _require_symmetric(a)
    if a.rows < 2:
        raise ValueError("standard form needs dimension at least 2")
    rank, _sign, work, off = a._eliminate()
    if rank == 0:
        raise ZeroMatrix("matrix is identically zero")
    if off is not None:
        # steps before off pivoted on the nonzero M_1..M_off, so M_(off+1)
        # is the first zero leading minor
        raise NotStandardForm(off + 1)
    return StandardFormData(rank, [work[p][p] for p in range(rank)]), work


def standard_form_check(a):
    """Rank and leading minors, or NotStandardForm naming the first zero minor."""
    return _standard_form(a)[0]


def standard_form_diagonalize(a):
    """Closed-form certificate from minors, for standard-form matrices.

    Let m be the product of the leading minors M_1..M_k, k = min(r, n-1)
    (exactly the denominators the columns carry), and m/M_j the product of
    the other k-1.  X_plus is lower triangular with m on the diagonal and
    below-diagonal entries (m/M_j) * det(A[(1..j-1,i), (1..j)]) in its
    first k columns.  X_minus is the lower-triangular solution of
    X_minus*X_plus = m^2*I, w = m^2, and D = diag(w*M_p/M_(p-1) =
    m*(m/M_(p-1))*M_p for p <= r, then zeros); the final check compares
    that D with X_minus*A*X_minus^t.  All minors come from one elimination,
    and X_plus and D need no division.
    """
    data, work = _standard_form(a)
    n = a.rows
    nvars = a.nvars
    minors = data.minors
    zero = Polynomial.zero(nvars)
    k = min(data.rank, n - 1)
    # others[j] = m / M_(j+1), the product of the other k-1 leading minors
    one = Polynomial.one(nvars)
    others = [math.prod(minors[:j] + minors[j + 1 : k], start=one) for j in range(k)]
    m = others[0] * minors[0]
    w = m * m

    x_plus = [[zero] * n for _ in range(n)]
    for i in range(n):
        x_plus[i][i] = m
        for j in range(min(i, k)):
            x_plus[i][j] = others[j] * work[i][j]

    # forward substitution on X_minus * X_plus = m^2 * I, row by row
    x_minus = [[zero] * n for _ in range(n)]
    for i in range(n):
        x_minus[i][i] = m
        for j in range(i - 1, -1, -1):
            pairs = ((x_minus[i][q], x_plus[q][j]) for q in range(j + 1, i + 1))
            acc = sum_of_products(nvars, pairs)
            try:
                x_minus[i][j] = (-acc).exact_div(m)
            except ValueError:
                raise InternalIdentityFailure(
                    f"inverse entry ({i + 1},{j + 1}) is not polynomial"
                ) from None

    # w*M_p/M_(p-1) = m * (m/M_(p-1)) * M_p, with m/M_0 = m
    d_entries = [m * (f * m_p) for f, m_p in zip([m] + others, minors)]
    d_entries += [zero] * (n - data.rank)
    xp = PolyMatrix.from_rows(x_plus)
    xm = PolyMatrix.from_rows(x_minus)
    return _checked(a, DiagCertificate(n, xp, xm, PolyMatrix.diagonal(d_entries), w))


def _checked(a, cert):
    """cert, once diag_certificate_failures finds no broken identity."""
    failures = diag_certificate_failures(a, cert)
    if failures:
        raise InternalIdentityFailure("certificate identities broke: " + "; ".join(failures))
    return cert


def block_step(a):
    """One corner reduction: A -> diag(alpha^3, alpha*(alpha*C - beta^t*beta)).

    Returns (Atilde, X_plus, X_minus, alpha) with X_plus*X_minus = alpha^2*I,
    Atilde = X_minus*A*X_minus^t and alpha^4*A = X_plus*Atilde*X_plus^t,
    where alpha is the corner entry, beta the rest of the first row, and C
    the trailing block.  All three identities are checked here, before
    returning.  The producers call the unchecked step instead and check
    each finished certificate once, against its subject.
    """
    _require_symmetric(a)
    n = a.rows
    if n < 2:
        raise ValueError("block step needs dimension at least 2")
    at, xp, xm, alpha = _block_step(a)
    a2 = alpha * alpha
    failures = []
    if xp @ xm != PolyMatrix.identity(n, a.nvars) * a2:
        failures.append("X_plus*X_minus = alpha^2*I")
    if at != xm.congruence(a):
        failures.append("Atilde = X_minus*A*X_minus^t")
    if (a2 * a2) * a != xp.congruence(at):
        failures.append("alpha^4*A = X_plus*Atilde*X_plus^t")
    if failures:
        raise InternalIdentityFailure("block step identities broke: " + "; ".join(failures))
    return at, xp, xm, alpha


def _block_step(a):
    """block_step without its checks, for a symmetric a of dimension >= 2."""
    n = a.rows
    nvars = a.nvars
    zero = Polynomial.zero(nvars)
    alpha = a[0, 0]
    beta = [a[0, k] for k in range(1, n)]

    atilde = [[zero] * n for _ in range(n)]
    atilde[0][0] = alpha * alpha * alpha
    # the trailing block alpha*(alpha*C - beta^t*beta) is symmetric with a
    for p in range(1, n):
        neg_beta = -beta[p - 1]
        for q in range(p, n):
            inner = sum_of_products(nvars, ((alpha, a[p, q]), (neg_beta, beta[q - 1])))
            atilde[p][q] = atilde[q][p] = alpha * inner

    def corner(sign):
        rows = [[zero] * n for _ in range(n)]
        rows[0][0] = alpha
        for p in range(1, n):
            rows[p][0] = beta[p - 1] if sign > 0 else -beta[p - 1]
            rows[p][p] = alpha
        return PolyMatrix.from_rows(rows)

    return PolyMatrix.from_rows(atilde), corner(+1), corner(-1), alpha


def _pivot(a, i, j):
    """Congruence bringing the (i, j) pivot to the corner.

    Returns (A_ij, V, V_inv, scale) with A_ij = V*A*V^t and
    (A_ij)_11 = scale * (a_ij + (a_ii + a_jj)/2), scale in {1, 2}.
    """
    n = a.rows
    nvars = a.nvars
    p_i = permutation_matrix(n, i, nvars)
    if i == j:
        v = p_i
        v_inv = p_i
        scale = Fraction(1)
    else:
        w_add = PolyMatrix.identity(n, nvars)
        one = Polynomial.one(nvars)
        rows = [list(w_add.row(r)) for r in range(n)]
        rows[i - 1][j - 1] = one
        w_add = PolyMatrix.from_rows(rows)
        rows[i - 1][j - 1] = -one
        w_inv = PolyMatrix.from_rows(rows)
        v = p_i @ w_add
        v_inv = w_inv @ p_i
        scale = Fraction(2)
    return v.congruence(a), v, v_inv, scale


def pivot_congruence(a, i, j):
    """Public pivot move; returns (A_ij, V, scale) for 1 <= i <= j <= n."""
    _require_symmetric(a)
    n = a.rows
    if not (1 <= i <= j <= n):
        raise ValueError(f"pivot indices must satisfy 1 <= i <= j <= {n}, got ({i},{j})")
    a_ij, v, _v_inv, scale = _pivot(a, i, j)
    return a_ij, v, scale


def _averaged_pivot(a, i, j):
    # a_ij + (a_ii + a_jj)/2; equals a_ii when i = j
    if i == j:
        return a[i - 1, i - 1]
    return a[i - 1, j - 1] + Fraction(1, 2) * (a[i - 1, i - 1] + a[j - 1, j - 1])


def _embed_kept(small, size, kept, fill_diag):
    """Place a matrix on the kept indices; fill dropped diagonal slots."""
    nvars = small.nvars
    zero = Polynomial.zero(nvars)
    rows = [[zero] * size for _ in range(size)]
    for p, ip in enumerate(kept):
        for q, iq in enumerate(kept):
            rows[ip][iq] = small[p, q]
    for d in range(size):
        if d not in kept:
            rows[d][d] = fill_diag
    return PolyMatrix.from_rows(rows)


def single_path_diagonalize(a):
    """One certificate for any nonzero symmetric matrix.

    At each level the first (i, j) in lexicographic order whose averaged
    pivot value is not identically zero is pivoted to the corner, the block
    step splits off its cube, and the recursion continues on the trailing
    block until it is identically zero.
    """
    _require_symmetric(a)
    if a.is_zero():
        raise ZeroMatrix("matrix is identically zero")
    # one pivot per level gives exactly one branch, so a cap of 1 never trips
    ((d, xp, xm, w, _pivots, _scales),) = _branches(a, bundle=False, cap=1, counter=[0])
    return _checked(a, DiagCertificate(a.rows, xp, xm, d, w))


def diagonalization_bundle(a, cap_branches=10_000):
    """Certificates for every pivot path, with their traces.

    At each level every pair (i, j) with i <= j is pivoted to the corner
    and reduced; zero rows and columns of the trailing block are compacted
    away before recursing, and a branch ends when its trailing block is
    identically zero.  Raises BundleTooLarge past cap_branches branches.
    """
    _require_symmetric(a)
    if a.is_zero():
        raise ZeroMatrix("matrix is identically zero")
    if cap_branches < 1:
        raise ValueError("branch cap must be positive")
    branches = []
    failures = []
    for k, (d, xp, xm, w, pivots, scales) in enumerate(
        _branches(a, bundle=True, cap=cap_branches, counter=[0]), start=1
    ):
        cert = DiagCertificate(a.rows, xp, xm, d, w)
        failures.extend(f"branch {k}: {f}" for f in diag_certificate_failures(a, cert))
        branches.append((cert, PivotTrace(pivots, scales)))
    if failures:
        raise InternalIdentityFailure("bundle identities broke: " + "; ".join(failures))
    return DiagBundle(a.rows, tuple(branches))


def _branches(m, bundle, cap, counter):
    """Branch tuples (D, X_plus, X_minus, w, pivots, scales) for m.

    The bundle route pivots on every (i, j) and compacts zero rows and
    columns of a nonzero trailing block away before recursing.  The single
    path pivots only on the first (i, j) whose averaged pivot value is not
    identically zero and keeps the trailing block whole, so it yields one
    branch.  counter[0] counts finished branches; past cap, BundleTooLarge.
    """
    n = m.rows
    nvars = m.nvars
    one = Polynomial.one(nvars)
    if n == 1 or m.is_zero():
        counter[0] += 1
        if counter[0] > cap:
            raise BundleTooLarge(f"branch count exceeds cap {cap}")
        ident = PolyMatrix.identity(n, nvars)
        return [(m, ident, ident, one, (), ())]

    pivots = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    if not bundle:
        # a nonzero m has a usable pivot: its diagonal entries are the
        # averaged (i,i) values and 2*a_ij = 2*avg_ij - a_ii - a_jj
        pivots = [next(p for p in pivots if not _averaged_pivot(m, *p).is_zero())]
    size = n - 1
    corner_free = range(1, n)  # every index but the corner's
    out = []
    for i, j in pivots:
        a_piv, v, v_inv, scale = _pivot(m, i, j)
        at, xp, xm, alpha = _block_step(a_piv)
        trailing = at.submatrix(tuple(range(2, n + 1)), tuple(range(2, n + 1)))
        kept = list(range(size))
        if bundle and not trailing.is_zero():
            kept = [k for k in kept if any(not trailing[k, q].is_zero() for q in range(size))]
        if len(kept) < size:
            idx = tuple(k + 1 for k in kept)
            trailing = trailing.submatrix(idx, idx)
        for d_b, xp_b, xm_b, w_b, pivots_b, scales_b in _branches(trailing, bundle, cap, counter):
            if len(kept) < size:
                d_b = _embed_kept(d_b, size, kept, Polynomial.zero(nvars))
                xm_b = _embed_kept(xm_b, size, kept, one)
                xp_b = _embed_kept(xp_b, size, kept, w_b)
            out.append(
                (
                    _embed_kept(d_b, n, corner_free, at[0, 0]),
                    v_inv @ xp @ _embed_kept(xp_b, n, corner_free, w_b),
                    _embed_kept(xm_b, n, corner_free, one) @ xm @ v,
                    alpha * alpha * w_b,
                    ((i, j),) + pivots_b,
                    (scale,) + scales_b,
                )
            )
    return out
