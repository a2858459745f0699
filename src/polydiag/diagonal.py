"""Exact congruence diagonalization of symmetric polynomial matrices.

Three routes, all walks of one pivot recursion (_grow) whose leaves one
_finish reads into certificates.  _walk tests their preconditions once.
Each route checks every certificate it returns once, against its subject,
with diag_certificate_failures (the bundle through
bundle_certificate_failures, so it records that subject), in the walk's
ring: one polymat._ImageContext per call, which holds _walk's symmetry
test and, on integer images, the walk's integers (see the last paragraph):

- standard_form_diagonalize: one closed-form certificate for matrices in
  standard form (rank r with M_1, ..., M_r all nonzero), pivoting on the
  corner at every level; _standard_form refuses its walk's vacuous leaf.
- single_path_diagonalize: one certificate for any nonzero symmetric
  matrix, by recursively pivoting on the first position whose averaged
  pivot value is not identically zero.
- diagonalization_bundle: every pivot choice at every level, giving a
  family of certificates D_l with the pointwise property that A(s) is PSD
  exactly when all diagonal entries of all D_l(s) are nonnegative.

The walk is a module-level generator of leaves and holds no reference
cycles, so each producer's intermediate matrices die by reference count
as soon as it returns, whenever the cyclic collector runs.

Every certificate is read off one symmetric fraction-free elimination
(Bareiss, Math. Comp. 22, 1968): each step turns the trailing block into
(alpha*C - beta^t*beta) / (previous pivot), exact by Sylvester's identity,
with the leading minors M_p as pivots.  That is the paper's block step
alpha*(alpha*C - beta^t*beta) over a nonzero polynomial, so pivots,
compactions and branches are the paper's.  The standard route scales the
rows of L^-1 by the product m of the minors: D_p = m^2*M_p/M_(p-1), and
w = m^2.  The pivot routes use the Jacobi scaling s_p = M_(p-1): D_p =
M_(p-1)*M_p, and the paper's D_p is that times a square.  There w = m
suffices; it need not be a square, for the identity w^2*A = X_plus*D*X_plus^t
and the equivalence witness take w^2.  The standard scaling would break the
bundle's property, for its D_p carries later minors squared and reads 0
where one vanishes: A = [[5t2^2, 2t2^2, -2t2], [2t2^2, t2, -t1^2],
[-2t2, -t1^2, 2t1t2 + 2t1 - 2]] is not PSD at (0, 0), yet every branch's D
would be >= 0 there.

The pivot move adds row j to row i (for i < j) and swaps rows 1 and i; the
corner a_ii + 2*a_ij + a_jj is twice the averaged pivot value.  A branch's
moves and compactions make one integer matrix P with an integer inverse.
The walk eliminates [A | I], with column operations on the left n columns
only: that leaves [B | X_minus], B = P*A*P^t, and X_plus = P^-1*X_plus'.

The walk runs on one of two rings, with the same code.  In two or more
variables its entries are Polynomials.  In one variable it packs L*[A | I]
once, L the lcm of A's denominators, into the integers N(2^beta) of its
integer polynomial entries N (arith._images); products, exact divisions,
zero tests and compactions then act on Python ints, since evaluation at
t1 = 2^beta is a ring homomorphism, and _finish unpacks each certificate
entry once (arith._from_image).  Each step's numerator carries one more
factor L than its divisor, so an entry of row p after s steps is
L^(s+1) times the rational one.  beta comes from an a-priori bound.  Every
value the walk tests for zero or unpacks is a minor of size at most n of
some P*L*[A | I]*(P^t (+) I), or a product of such minors of total size at
most E, combined by the rows of P^-1.  A row of L*[A | I] has l1 norm at
most n*B + L, B from arith._image_bounds; a move at most doubles a row's
norm by its row addition and again by its column addition, so with at most
`moves` moves (0 on the standard route, n - 1 on the pivot routes) every
row stays below G = (n*B + L)*4^moves, and a minor of size s has l1 norm at
most G^s (the product of its rows' norms).  The powers of L in _finish
give E = 2*S_n + 1 on the standard route and max(S_n, 2n - 1) on the pivot
routes, S_n = n(n-1)/2; a row of P^-1 has l1 norm at most 2^moves and a
corner is a sum of four entries.  So every coefficient is below
C = 4*n*2^moves*G^E, and with beta = bits(C) + 2 below 2^(beta-1): such an
integer polynomial is zero iff its image is, and its balanced base-2^beta
digits are its coefficients.  One-variable walks whose largest image,
beta*(E*deg + 1) bits, passes _WALK_BITS_CAP stay on Polynomials: there
the big-integer products cost more than the sparse ones.  Images of
polynomials in several variables would be dense and far larger than their
terms, so those walks stay sparse.

The check of a walk on images runs in the walk's ring, on its integers at
its beta_w.  _packed seeds the ring with the subject's images
L*A(2^beta_w); _emit, as it unpacks each distinct certificate entry once
per leaf, seeds X_plus, X_minus, D and w with the integers it unpacked
them from, an entry over L^e lifted by L^(top - e) under the factor scale
L^top, top the factor's largest power, and with each factor's l1 bound and
degree read off the balanced digits.  Every integer is the image at
2^beta_w of the one polynomial with its balanced base-2^beta_w digits
(arith._from_image), so each seed is exactly the image of the entry
emitted from it, whatever the walk computed.  So when an identity's own
bound, from those digits, gives a beta no larger than beta_w, its seeded
images decide it exactly: the difference of its sides has coefficients
below 2^(beta-1) <= 2^(beta_w-1).  An identity whose bound needs more, or
one with a factor that has no seed, has every factor imaged afresh at its
own beta, as a verification of parsed text has.  The seeds die with the
producer call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Polynomial, _digits, _image_bounds, _images, _reduced
from .certificates import (
    DiagBundle, DiagCertificate, PivotTrace, _require, bundle_certificate_failures, diag_certificate_failures
)
from .errors import BundleTooLarge, InternalIdentityFailure, NotStandardForm, NotSymmetric, ZeroMatrix
from .polymat import PolyMatrix, T, _bareiss_step, _ImageContext, identity_holds

# A one-variable walk runs on Polynomials when its largest image,
# beta*(E*deg + 1) bits, would pass this; set from a measured crossover.
_WALK_BITS_CAP = 2**15


@dataclass(frozen=True)
class StandardFormData:
    """The r nonzero leading principal minors; r is the generic rank."""

    minors: tuple  # (M_1, ..., M_r)

    def __post_init__(self):
        object.__setattr__(self, "minors", tuple(self.minors))

    @property
    def rank(self):
        return len(self.minors)


def _require_symmetric(a):
    if not a.is_symmetric():
        raise NotSymmetric("matrix must be symmetric")


def _standard_form(a):
    """The standard route's one leaf, or NotStandardForm when the leaf is
    vacuous: its corner, M_(level+1), vanishes below the rank."""
    (leaf,) = _walk(a, "standard")[1]
    _ring, _work, _p_inv, level, _pivots, vacuous = leaf
    if vacuous:
        raise NotStandardForm(level + 1)
    return leaf


def standard_form_check(a):
    """Rank and leading minors, or NotStandardForm naming the first zero minor."""
    ring, work, _p_inv, level, _pivots, _vacuous = _standard_form(a)
    rank = level + bool(work[level][level])
    return StandardFormData([ring.poly(work[p][p], p + 1) for p in range(rank)])


def standard_form_diagonalize(a):
    """Closed-form certificate from minors, for standard-form matrices.

    Every row of L^-1 is scaled by m = M_1*...*M_k, k = min(r, n-1): X_plus
    has m on its diagonal and (m/M_j) * det(A[(1..j-1,i), (1..j)]) below it
    in its first k columns, w = m^2 and D = diag(w*M_p/M_(p-1), p <= r).
    """
    leaf = _standard_form(a)
    cert = _finish(*leaf, jacobi=False)[0]
    _require(diag_certificate_failures(a, cert, leaf[0]), InternalIdentityFailure, "certificate identities broke")
    return cert


def block_step(a):
    """The paper's corner reduction: A -> diag(alpha^3, alpha*(alpha*C - beta^t*beta)).

    Returns (Atilde, X_plus, X_minus, alpha) with X_plus*X_minus = alpha^2*I,
    Atilde = X_minus*A*X_minus^t and alpha^4*A = X_plus*Atilde*X_plus^t,
    where alpha is the corner entry, beta the rest of the first row, and C
    the trailing block.  The first two identities are checked here, before
    returning; they imply the third, whose product is multiplied out only
    to report it when one of them fails.  The producers divide
    alpha*C - beta^t*beta by the previous pivot instead.
    """
    _require_symmetric(a)
    n = a.rows
    if n < 2:
        raise ValueError("block step needs dimension at least 2")
    nvars = a.nvars
    zero = Polynomial.zero(nvars)
    alpha = a[0, 0]
    beta = [a[0, k] for k in range(1, n)]
    rows = [list(a.row(r)) for r in range(n)]
    _bareiss_step(rows, 0, Polynomial.one(nvars), symmetric=True)  # alpha*C - beta^t*beta
    atilde = [[zero] * n for _ in range(n)]
    atilde[0][0] = alpha * alpha * alpha
    for p in range(1, n):
        for q in range(p, n):
            atilde[p][q] = atilde[q][p] = alpha * rows[p][q]

    def corner(sign):
        rows = [[alpha if p == q else zero for q in range(n)] for p in range(n)]
        for p in range(1, n):
            rows[p][0] = sign * beta[p - 1]
        return PolyMatrix.from_rows(rows)

    at, xp, xm = PolyMatrix.from_rows(atilde), corner(+1), corner(-1)
    a2 = alpha * alpha
    a2_id = PolyMatrix.diagonal([a2] * n)
    failures = []
    plus_minus = identity_holds([(xp, xm)], [(a2_id,)])
    if not plus_minus:
        failures.append("X_plus*X_minus = alpha^2*I")
    congruent = identity_holds([(at,)], [(xm, a, T)])
    if not congruent:
        failures.append("Atilde = X_minus*A*X_minus^t")
    if not (plus_minus and congruent) and not identity_holds([(a2, a2, a)], [(xp, at, T)]):
        failures.append("alpha^4*A = X_plus*Atilde*X_plus^t")
    _require(failures, InternalIdentityFailure, "block step identities broke")
    return at, xp, xm, alpha


def pivot_congruence(a, i, j):
    """(A_ij, V, scale) with A_ij = V*A*V^t, 1 <= i <= j <= n, and
    (A_ij)_11 = scale * (a_ij + (a_ii + a_jj)/2), scale 1 if i = j else 2."""
    _require_symmetric(a)
    n = a.rows
    if not (1 <= i <= j <= n):
        raise ValueError(f"pivot indices must satisfy 1 <= i <= j <= {n}, got ({i},{j})")
    work = _augmented(a)
    _move(work, [], 0, n, i - 1, j - 1)  # no P^-1 to carry
    a_ij, v = ([row[cols] for row in work] for cols in (slice(n), slice(n, None)))
    return PolyMatrix.from_rows(a_ij), PolyMatrix.from_rows(v), PivotTrace(((i, j),)).scales[0]


def _augmented(a):
    """The rows of [A | I]."""
    eye = PolyMatrix.identity(a.rows, a.nvars)
    return [[*a.row(r), *eye.row(r)] for r in range(a.rows)]


def _combine(coeffs, rows):
    """coeffs * rows for an integer matrix coeffs, by adding and negating rows."""
    out = []
    for crow in coeffs:
        terms = [r if c > 0 else [-x for x in r] for c, r in zip(crow, rows) for _ in range(abs(c))]
        out.append([sum(col[1:], col[0]) for col in zip(*terms)])
    return out


def _corner_vanishes(work, level, i, j):
    # the (i, j) move's corner a_ii + 2*a_ij + a_jj (4*a_ii for i = j) at level
    a, b = level + i - 1, level + j - 1
    return not (work[a][a] + work[a][b] + work[a][b] + work[b][b])


def _permute(work, p_inv, lo, hi, order):
    """Positions lo..hi-1 take the rows, and block columns, at order."""
    work[lo:hi] = [work[x] for x in order]
    for row in work[lo:hi]:
        row[lo:hi] = [row[x] for x in order]
    for row in p_inv:
        row[lo:hi] = [row[x] for x in order]


def _move(work, p_inv, level, end, a, b):
    """Pivot move on positions a <= b of the block level..end-1: add row and
    column b to a (a < b), swap a into the corner; P^-1 takes the inverse."""
    if a != b:
        work[a] = [x + y for x, y in zip(work[a], work[b])]
        for row in work[level:end]:
            row[a] = row[a] + row[b]
        for row in p_inv:
            row[b] -= row[a]
    order = list(range(level, end))
    order[0], order[a - level] = a, level
    _permute(work, p_inv, level, end, order)


def single_path_diagonalize(a):
    """One certificate for any nonzero symmetric matrix: each level pivots on
    the first (i, j) in lexicographic order whose averaged pivot value is
    not identically zero, until the trailing block is zero or 1 x 1."""
    # one pivot per level gives exactly one branch, so a cap of 1 never trips
    ring, ((cert, _trace),) = _branches(a, "single", cap=1)
    _require(diag_certificate_failures(a, cert, ring), InternalIdentityFailure, "certificate identities broke")
    return cert


def diagonalization_bundle(a, cap_branches=10_000):
    """Certificates for every pivot path, with their traces.

    Each level pivots on every (i, j) with i <= j and eliminates; zero rows
    and columns of the trailing block are compacted away, and a branch ends
    when that block is identically zero.  BundleTooLarge past cap_branches.
    """
    ring, branches = _branches(a, "bundle", cap_branches)
    bundle = DiagBundle(branches)
    _require(bundle_certificate_failures(a, bundle, ring), InternalIdentityFailure, "bundle identities broke")
    return bundle


def _branches(a, route, cap):
    """(the walk's ring, [(DiagCertificate, PivotTrace) for each leaf]) of a
    pivot route; a cap below 1 is refused, and past cap, BundleTooLarge."""
    ring, leaves = _walk(a, route)
    if cap < 1:
        raise ValueError("branch cap must be positive")
    out = []
    for leaf in leaves:
        if len(out) >= cap:
            raise BundleTooLarge(f"branch count exceeds cap {cap}")
        out.append(_finish(*leaf))
    return ring, out


def _walk(a, route):
    """The walk's ring (_packed) and a generator of its leaves, for route
    ("standard", "single" or "bundle") on a, after testing in this order that
    a is symmetric, of dimension 2 or more on the standard route, and nonzero."""
    _require_symmetric(a)
    n = a.rows
    if route == "standard" and n < 2:
        raise ValueError("standard form needs dimension at least 2")
    if a.is_zero():
        raise ZeroMatrix("matrix is identically zero")
    ring, rows = _packed(a, route)
    return ring, _grow(ring, route, rows, [[int(x == y) for y in range(n)] for x in range(n)], 0, n, ())


def _packed(a, route):
    """(ring, rows of [A | I] in it) for route's walk on a.  The ring is the
    producer call's _ImageContext, which its check shares: the integer
    images of L*[A | I] at t1 = 2^beta when a has one variable and its
    largest image, beta*(E*deg + 1) bits, is at most _WALK_BITS_CAP, with
    a's images seeded in it; otherwise Polynomials, at beta 0."""
    n, nvars = a.rows, a.nvars
    ring = _ImageContext()
    ring.symmetric = a  # _walk tests a for symmetry before it packs
    if nvars == 1:
        lcm, bound, degree, forms = _image_bounds(a.entries)
        moves = 0 if route == "standard" else n - 1
        s_n = n * (n - 1) // 2
        e = 2 * s_n + 1 if route == "standard" else max(s_n, 2 * n - 1)
        g = (n * bound + lcm) << 2 * moves
        beta = (4 * n * g**e << moves).bit_length() + 2
        if beta * (e * degree + 1) <= _WALK_BITS_CAP:
            images = _images(forms, lcm, beta)
            ring.beta, ring.lcm = beta, lcm
            ring.seed(a, lcm, bound, degree, images)
            rows = [images[r * n : (r + 1) * n] + [lcm * (r == c) for c in range(n)] for r in range(n)]
            return ring, rows
    ring.one, ring.zero = Polynomial.one(nvars), Polynomial.zero(nvars)
    return ring, _augmented(a)


def _grow(ring, route, work, p_inv, level, end, pivots):
    """Leaves (ring, work, P^-1, level, pivots, vacuous), depth first.

    A branch's state is its elimination of [B | P], B = P*A*P^t, with P^-1;
    steps span all n rows, so compacted rows keep being scaled.  Positions
    level..end-1 hold the trailing block, and a leaf is reached when that
    block is identically zero or 1 x 1, or (vacuous) when the pivot's
    corner is identically zero.  The bundle pivots on every (i, j) and
    compacts zero rows and columns to the block's end; the single path
    takes the first pivot whose corner is not identically zero and keeps
    the block whole; the standard route pivots on (1, 1) only, and yields
    its vacuous leaf for _standard_form to refuse.
    """
    size = end - level
    block = range(level, end)
    if size == 1 or not any(work[x][y] for x in block for y in block):
        yield ring, work, p_inv, level, pivots, False
        return
    choices = [(i, j) for i in range(1, size + 1) for j in range(i, size + 1)]
    if route == "standard":
        choices = [(1, 1)]
    tested = ((c, _corner_vanishes(work, level, *c)) for c in choices)
    if route == "single":
        # a nonzero block has a usable pivot: its diagonal entries are the
        # averaged (i,i) values and 2*a_ij = 2*avg_ij - a_ii - a_jj
        tested = [next(t for t in tested if not t[1])]
    prev = work[level - 1][level - 1] if level else ring.one
    for (i, j), vacuous in tested:
        trace = pivots + ((i, j),)
        if vacuous:
            yield ring, work, p_inv, level, trace, True
            continue
        w2, p_inv2 = ([row[:] for row in m] for m in (work, p_inv))
        _move(w2, p_inv2, level, end, level + i - 1, level + j - 1)
        _bareiss_step(w2, level, prev, symmetric=True)
        rest = range(level + 1, end)
        kept = [x for x in rest if any(w2[x][y] for y in rest)] if route == "bundle" else []
        if 0 < len(kept) < len(rest):
            _permute(w2, p_inv2, level + 1, end, kept + [x for x in rest if x not in kept])
        yield from _grow(ring, route, w2, p_inv2, level + 1, level + 1 + (len(kept) or len(rest)), trace)


def _finish(ring, work, p_inv, level, pivots, vacuous, jacobi=True):
    """The leaf's certificate and trace, read off its elimination.

    work is [B | P] after k = level steps, B = P*A*P^t: work[p][p] = M_(p+1)
    below the rank; in column j < k below it, the numerator
    det B[(1..j, i+1), (1..j+1)] (1-based) of L, the unit lower triangular
    factor of B = L*diag(M_p/M_(p-1))*L^t; on the right, S*L^-1*P with the
    Jacobi scaling s_p = M_min(p,k) (M_0 = 1); the standard route's scaling
    by m = M_1*...*M_k (jacobi false) multiplies row p by m/s_p.  Then
    X_plus = P^-1*w*L*S^-1 and D_p = s_p^2*M_(p+1)/M_p need no division,
    with w = m^2 for the scaling by m but w = m for the Jacobi one: column
    j of L*S^-1 then has the denominator M_j*M_(j+1), two distinct factors
    of m.  A vacuous leaf keeps the rows of its pivots in X_minus; its
    X_plus and w are zero.

    Both rings compute alike.  On the image ring, whose entry of row p is
    L^(min(p,k)+1) times the rational one, _emit unpacks each distinct
    certificate entry once, over the power of L that its product of minors
    carries, and seeds the check with its integer:
    with S = k(k+1)/2, X_plus over L^S, X_minus over L^(S+1), D over
    L^(2S+1) and w over L^(2S) when jacobi is false; otherwise X_plus's
    column j over L^(S-min(j,k)), X_minus's row p over L^(min(p,k)+1), D_p
    over L^(2p+1) and w over L^S.
    """
    n, k = len(work), level
    one, zero = ring.one, ring.zero
    rank = level + (not vacuous and bool(work[level][level]))
    minors = [work[p][p] for p in range(rank)]
    # quot[p] = m / M_p (M_0 = 1), the product of the other minors
    quot = [math.prod(minors[:j] + minors[j + 1 : k], start=one) for j in range(k)]
    m = quot[0] * minors[0] if k else one
    quot.insert(0, m)
    sk = k * (k + 1) // 2  # m is over L^sk on the image ring
    # per row p: w / s_p and D_p; per column j < k: w / (s_j * M_(j+1))
    if jacobi:
        w, w_over = m, sk
        w_over_s = [quot[min(p, k)] for p in range(n)]
        d = [s * minor for s, minor in zip([one] + minors, minors)]  # s_p = M_p below the rank
        # m / (M_j * M_(j+1)): the minors other than those two
        col = [math.prod(minors[:max(j - 1, 0)] + minors[j + 1 : k], start=one) for j in range(k)]
        x_minus = [row[n:] for row in work]
        xp_over = [sk - min(j, k) for j in range(n)]
        xm_over = [min(p, k) + 1 for p in range(n)]
        d_over = [2 * p + 1 for p in range(n)]
    else:
        w, w_over = m * m, 2 * sk
        w_over_s = [m] * n
        d = [m * (quot[p] * minors[p]) for p in range(rank)]
        col = quot[1:]
        x_minus = [[quot[min(p, k)] * x for x in work[p][n:]] for p in range(n)]
        xp_over, xm_over, d_over = [sk] * n, [sk + 1] * n, [2 * sk + 1] * n
    x_plus = [[zero] * n for _ in range(n)]
    if vacuous:
        w, x_minus = zero, x_minus[:level] + x_plus[level:]
    else:
        for i in range(n):
            x_plus[i][i] = w_over_s[i]
            for j in range(min(i, k)):
                x_plus[i][j] = col[j] * work[i][j]
    d += [zero] * (n - rank)
    memo = {}
    cert = DiagCertificate(
        _emit(ring, memo, n, [x for row in _combine(p_inv, x_plus) for x in row], xp_over * n),
        _emit(ring, memo, n, [x for row in x_minus for x in row], [e for e in xm_over for _ in range(n)]),
        _emit(ring, memo, n, [d[p] if p == q else zero for p in range(n) for q in range(n)],
              [e for e in d_over for _ in range(n)]),
        _emit(ring, memo, None, [w], [w_over]),
    )
    return cert, PivotTrace(pivots)


def _emit(ring, memo, n, values, powers):
    """The n x n PolyMatrix, or for n None the Polynomial, whose entries,
    row-major, are values, the entry at k over L^powers[k].

    On the image ring, each distinct entry is unpacked once per leaf (memo
    maps (value, power) to its Polynomial, l1 norm and degree), and the
    factor is seeded in the ring: under the scale L^top, top the largest
    power, its images are value*L^(top - power) at the walk's beta, and its
    bound the largest l1 norm of an entry times L^(top - power), both read
    off the balanced digits.
    """
    if not ring.beta:
        return PolyMatrix(n, n, values) if n else values[0]
    beta, lcm, top = ring.beta, ring.lcm, max(powers)
    lifts = None if lcm == 1 else [lcm ** (top - e) for e in range(top + 1)]
    zero = Polynomial.zero(1)
    polys = []
    bound = degree = 0
    for x, e in zip(values, powers):
        if not x:
            polys.append(zero)
            continue
        known = memo.get((x, e))
        if known is None:
            pairs, l1 = _digits(x, beta)
            known = memo[x, e] = (_reduced(1, lcm**e, pairs), l1, pairs[0][0])
        polys.append(known[0])
        l1 = known[1] if lifts is None else known[1] * lifts[e]
        if l1 > bound:
            bound = l1
        if known[2] > degree:
            degree = known[2]
    image = values if lifts is None else [x * lifts[e] for x, e in zip(values, powers)]
    f = PolyMatrix(n, n, polys) if n else polys[0]
    ring.seed(f, lcm**top, bound, degree, image)
    return f
