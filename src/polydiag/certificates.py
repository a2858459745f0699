"""Certificate types, verifiers, and the certificate file format.

A diagonalization certificate (X_plus, X_minus, D, w) claims that a
symmetric polynomial matrix A is congruent to the diagonal matrix D up to
square scalar factors:

    X_plus*X_minus = X_minus*X_plus = w*I
    D = X_minus*A*X_minus^t
    w^2*A = X_plus*D*X_plus^t

All identities are exact polynomial equalities.  The third is implied:
X_plus*X_minus = w*I and D = X_minus*A*X_minus^t give X_plus*D*X_plus^t =
(X_plus*X_minus)*A*(X_plus*X_minus)^t = w^2*A by associativity over a
commutative ring, so the verifier multiplies it out only to report which
identities a broken certificate fails.  Because congruences preserve
pointwise positive semidefiniteness in both directions and w^2 is a
square, D(s) is PSD exactly where A(s) is, at every rational point s.

An equivalence witness (s1, s2, z, x_plus, x_minus) claims a1 ~ a2 via
s1*a1 = s2*x_plus*a2*x_plus^t with x_minus*x_plus = x_plus*x_minus = z*I.
The scalars s1, s2 must be nonzero sums of squares; witnesses carry their
square decompositions explicitly, so verification never has to decide
SOS-ness.  The calculus is closed under symmetrize (a2 ~ a1) and compose
(a1 ~ a2 ~ a3 gives a1 ~ a3).

An SOS-matrix certificate (c, [Q_1, ..., Q_k]) claims c^2*A = sum of
Q_j^t*Q_j with c a nonzero scalar polynomial.  A module membership
certificate exhibits an element of the preordering generated by commuting
diagonal matrices B_1, ..., B_r as sum_j sum_l y_jl^t * G_j * y_jl, where
each G_j is an ascending product of the B_i.

Every verifier has a *_failures companion that returns the list of broken
identities (empty means the certificate verifies), so callers can report
exactly what failed.  Each identity is stated once, as two sums of
products for polymat.identity_holds, which decides it exactly with one
routine: on integer images in one variable, otherwise on sparse products.

Certificate files are sectioned text: a `[meta]` section with `key value`
lines (kind, dim, nvars <= MAX_NVARS, per-kind counts), `[matrix <name>]`
sections in the matrix file format, `[poly <name>]` sections holding one
polynomial, `[trace <k>]` sections with `i j num/den` pivot lines, and
`[indexset <j>]` sections with one ascending index line (`-` when empty).
Each kind's section order is stated once, by a layout function that both
formats and parses it (see _KINDS).  Files are byte-deterministic for fixed
inputs.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .arith import MAX_NVARS, Polynomial, _decimal_int, _int_literal, parse_polynomial
from .errors import InternalIdentityFailure, NotSymmetric, ParseError
from .polymat import (
    PolyMatrix,
    T,
    _ImageContext,
    _LineMemo,
    _data_lines,
    _matrix_lines,
    _parse_matrix_lines,
    congruence_sum,
    identity_holds,
)


# ---------------------------------------------------------------------------
# certificate data types


@dataclass(frozen=True)
class DiagCertificate:
    """Claims subject A is congruent to diagonal D, scaled by w."""

    X_plus: PolyMatrix
    X_minus: PolyMatrix
    D: PolyMatrix
    w: Polynomial

    @property
    def subject_dim(self):
        return self.X_plus.rows

    def __post_init__(self):
        n = self.subject_dim
        for name, mat in (("X_plus", self.X_plus), ("X_minus", self.X_minus), ("D", self.D)):
            if mat.rows != n or mat.cols != n:
                raise ValueError(f"{name} must be {n}x{n}, got {mat.rows}x{mat.cols}")
            if mat.nvars != self.w.nvars:
                raise ValueError("certificate parts disagree on variable count")


@dataclass(frozen=True)
class PivotTrace:
    """Recorded pivot path of one bundle branch.

    pivots: (i, j) pairs with i <= j, 1-based into the matrix current at
    each recursion level (after compaction of zero rows/columns).
    scales: per pivot, the factor relating the pivoted (1,1) entry to the
    averaged pivot value, read off the pivot by scale(i, j): 1 for i = j,
    2 for i < j.
    """

    pivots: tuple

    def __post_init__(self):
        object.__setattr__(self, "pivots", tuple(tuple(p) for p in self.pivots))
        for i, j in self.pivots:
            if not (type(i) is type(j) is int and 1 <= i <= j):  # a bool would print as True
                raise ValueError(f"bad pivot pair ({i},{j})")

    @staticmethod
    def scale(i, j):
        return 1 if i == j else 2

    @property
    def scales(self):
        return tuple(Fraction(self.scale(i, j)) for i, j in self.pivots)


@dataclass(frozen=True)
class DiagBundle:
    """All diagonalization branches of one subject, with their pivot traces."""

    branches: tuple  # of (DiagCertificate, PivotTrace)
    # the subject bundle_certificate_failures last found no broken identity for
    _verified: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def subject_dim(self):
        return self.branches[0][0].subject_dim

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(tuple(b) for b in self.branches))
        if not self.branches:
            raise ValueError("bundle has no branches")
        for cert, trace in self.branches:
            if not isinstance(cert, DiagCertificate) or not isinstance(trace, PivotTrace):
                raise TypeError("branches must be (DiagCertificate, PivotTrace) pairs")
            if cert.subject_dim != self.subject_dim:
                raise ValueError("branch dimension disagrees with bundle subject")


@dataclass(frozen=True)
class EquivWitness:
    """Witness for a1 ~ a2: s1*a1 = s2*x_plus*a2*x_plus^t.

    s1_squares and s2_squares are explicit square decompositions:
    s1 = sum(f^2 for f in s1_squares), likewise s2.
    """

    s1: Polynomial
    s1_squares: tuple
    s2: Polynomial
    s2_squares: tuple
    z: Polynomial
    x_plus: PolyMatrix
    x_minus: PolyMatrix

    def __post_init__(self):
        object.__setattr__(self, "s1_squares", tuple(self.s1_squares))
        object.__setattr__(self, "s2_squares", tuple(self.s2_squares))
        n = self.x_plus.rows
        if self.x_plus.cols != n or self.x_minus.rows != n or self.x_minus.cols != n:
            raise ValueError("x_plus and x_minus must be square of equal dimension")


@dataclass(frozen=True)
class SosMatrixCertificate:
    """Claims c^2*A = sum(Q^t*Q for Q in factors), c nonzero."""

    c: Polynomial
    factors: tuple  # of PolyMatrix, each k x n

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for q in self.factors:
            if q.cols != self.factors[0].cols or q.nvars != self.c.nvars:
                raise ValueError("factors must share column count and variable count")


@dataclass(frozen=True)
class ModuleMembershipCertificate:
    """Exhibits an element as sum_j sum_l y_jl^t * G_(idx_j) * y_jl.

    generator_index_sets: per summand, the ascending 1-based index tuple
    selecting which generator product G to use (empty tuple = identity).
    coefficients: per summand, the list of y matrices.
    """

    generator_index_sets: tuple
    coefficients: tuple  # of tuples of PolyMatrix

    def __post_init__(self):
        object.__setattr__(
            self, "generator_index_sets", tuple(tuple(s) for s in self.generator_index_sets)
        )
        object.__setattr__(self, "coefficients", tuple(tuple(c) for c in self.coefficients))
        if len(self.generator_index_sets) != len(self.coefficients):
            raise ValueError("index set and coefficient counts differ")
        for idx in self.generator_index_sets:
            if any(not (type(k) is int and k >= 1) for k in idx):
                raise ValueError(f"bad index set {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index set {idx} is not strictly ascending")


# ---------------------------------------------------------------------------
# diagonalization certificate verification


def _require(failures, error, what):
    """Raise error("<what>: <failures joined by '; '>") unless failures is empty."""
    if failures:
        raise error(f"{what}: " + "; ".join(failures))


def diag_certificate_failures(a, cert, images=None):
    """Broken-identity list for a DiagCertificate against subject a.

    w^2*A = X_plus*D*X_plus^t follows from X_plus*X_minus = w*I and
    D = X_minus*A*X_minus^t, so its product is multiplied out only when one
    of those two fails, to report whether it fails as well.  All identities
    share one polymat._ImageContext, images or a new one, so each factor is
    bounded once, and the subject is tested for symmetry once; a producer
    passes the one its walk seeded.
    """
    n = cert.subject_dim
    if a.rows != n or a.cols != n:
        raise ValueError(f"subject is {a.rows}x{a.cols}, certificate claims dimension {n}")
    if a.nvars != cert.w.nvars:
        raise ValueError("subject and certificate disagree on variable count")
    images = _ImageContext() if images is None else images
    if images.symmetric is not a:  # a bundle's branches share the test
        if not a.is_symmetric():
            raise NotSymmetric("subject matrix is not symmetric")
        images.symmetric = a
    xp, xm, d, w = cert.X_plus, cert.X_minus, cert.D, cert.w
    w_id = images.diagonal(w, n)
    failures = []
    plus_minus = identity_holds([(xp, xm)], [(w_id,)], images)
    if not plus_minus:
        failures.append("X_plus*X_minus = w*I")
    # X_plus*X_minus = w*I with w nonzero makes X_plus invertible over the
    # rational functions, X_minus = w*X_plus^-1, so X_minus*X_plus = w*I too
    if (not plus_minus or w.is_zero()) and not identity_holds([(xm, xp)], [(w_id,)], images):
        failures.append("X_minus*X_plus = w*I")
    if not d.is_diagonal():
        failures.append("D is diagonal")
    d_congruent = identity_holds([(d,)], [(xm, a, T)], images)
    if not d_congruent:
        failures.append("D = X_minus*A*X_minus^t")
    implied = plus_minus and d_congruent  # w^2*A = X_plus*D*X_plus^t follows
    if not implied and not identity_holds([(w, w, a)], [(xp, d, T)], images):
        failures.append("w^2*A = X_plus*D*X_plus^t")
    return failures


def bundle_certificate_failures(a, bundle, images=None):
    """Broken identities across all branches, tagged with branch numbers.

    The branches share one polymat._ImageContext, images or a new one, so
    the subject is bounded, and tested for symmetry, once for all of them.
    A bundle with none records its subject and is not verified against that
    same object again (both are immutable); a bundle that is parsed, built
    or copied with dataclasses.replace starts unverified.
    """
    if a.rows != bundle.subject_dim or a.cols != bundle.subject_dim:
        raise ValueError(
            f"subject is {a.rows}x{a.cols}, bundle claims dimension {bundle.subject_dim}"
        )
    if bundle._verified is a:
        return []
    images = _ImageContext() if images is None else images
    failures = []
    for k, (cert, _trace) in enumerate(bundle.branches, start=1):
        failures.extend(f"branch {k}: {f}" for f in diag_certificate_failures(a, cert, images))
    if not failures:
        object.__setattr__(bundle, "_verified", a)
    return failures


# ---------------------------------------------------------------------------
# equivalence witness calculus


def equiv_witness_failures(a1, a2, wit):
    """Broken-identity list for an EquivWitness relating a1 ~ a2."""
    n = wit.x_plus.rows
    if a1.rows != n or a1.cols != n or a2.rows != n or a2.cols != n:
        raise ValueError("witness dimension does not match the subjects")
    if a1.nvars != a2.nvars or a1.nvars != wit.z.nvars:
        raise ValueError("subjects and witness disagree on variable count")
    if not a1.is_symmetric():
        raise NotSymmetric("first subject is not symmetric")
    if not a2.is_symmetric():
        raise NotSymmetric("second subject is not symmetric")
    images = _ImageContext()  # each factor bounded once for all identities
    failures = []
    for name, s, squares in (("s1", wit.s1, wit.s1_squares), ("s2", wit.s2, wit.s2_squares)):
        if not identity_holds([(s,)], [(f, f) for f in squares], images):
            failures.append(f"{name} = sum of its stored squares")
    if wit.s1.is_zero():
        failures.append("s1 is nonzero")
    if wit.s2.is_zero():
        failures.append("s2 is nonzero")
    xp, xm = wit.x_plus, wit.x_minus
    z_id = images.diagonal(wit.z, n)
    minus_plus = identity_holds([(xm, xp)], [(z_id,)], images)
    if not minus_plus:
        failures.append("x_minus*x_plus = z*I")
    # with z nonzero the first product already implies the reverse one
    if (not minus_plus or wit.z.is_zero()) and not identity_holds([(xp, xm)], [(z_id,)], images):
        failures.append("x_plus*x_minus = z*I")
    if not identity_holds([(wit.s1, a1)], [(wit.s2, xp, a2, T)], images):
        failures.append("s1*a1 = s2*x_plus*a2*x_plus^t")
    return failures


def symmetrize_witness(a1, a2, wit):
    """Turn a witness for a1 ~ a2 into one for a2 ~ a1.

    Multiplying s1*a1 = s2*x_plus*a2*x_plus^t by x_minus on both sides and
    using x_minus*x_plus = z*I gives (s2*z^2)*a2 = s1*x_minus*a1*x_minus^t,
    so the roles of x_plus and x_minus swap and s1' = s2*z^2 picks up the
    square factor z on each stored square.
    """
    _require(equiv_witness_failures(a1, a2, wit), ValueError, "input witness does not verify")
    if wit.z.is_zero():
        raise ValueError("cannot symmetrize a witness whose z is identically zero")
    out = EquivWitness(
        s1=wit.s2 * wit.z * wit.z,
        s1_squares=tuple(g * wit.z for g in wit.s2_squares),
        s2=wit.s1,
        s2_squares=wit.s1_squares,
        z=wit.z,
        x_plus=wit.x_minus,
        x_minus=wit.x_plus,
    )
    _require(equiv_witness_failures(a2, a1, out), InternalIdentityFailure, "symmetrized witness broke")
    return out


def compose_witnesses(a1, a2, a3, w12, w23):
    """Chain witnesses a1 ~ a2 and a2 ~ a3 into a witness for a1 ~ a3.

    Substituting the second relation into the first multiplies the s
    factors pairwise (the product of two sums of squares is the sum of the
    pairwise-product squares) and multiplies the congruence factors.
    """
    _require(equiv_witness_failures(a1, a2, w12), ValueError, "first witness does not verify")
    _require(equiv_witness_failures(a2, a3, w23), ValueError, "second witness does not verify")
    out = EquivWitness(
        s1=w23.s1 * w12.s1,
        s1_squares=tuple(f * g for f in w12.s1_squares for g in w23.s1_squares),
        s2=w12.s2 * w23.s2,
        s2_squares=tuple(f * g for f in w12.s2_squares for g in w23.s2_squares),
        z=w12.z * w23.z,
        x_plus=w12.x_plus @ w23.x_plus,
        x_minus=w23.x_minus @ w12.x_minus,
    )
    _require(equiv_witness_failures(a1, a3, out), InternalIdentityFailure, "composed witness broke")
    return out


def witness_from_diag_certificate(cert):
    """The A ~ D witness carried by a diagonalization certificate.

    w^2*A = X_plus*D*X_plus^t is literally the witness identity with
    s1 = w^2, s2 = 1, z = w.
    """
    one = Polynomial.one(cert.w.nvars)
    return EquivWitness(
        s1=cert.w * cert.w,
        s1_squares=(cert.w,),
        s2=one,
        s2_squares=(one,),
        z=cert.w,
        x_plus=cert.X_plus,
        x_minus=cert.X_minus,
    )


# ---------------------------------------------------------------------------
# SOS-matrix certificates


def sos_matrix_failures(a, cert):
    """Broken-identity list for an SosMatrixCertificate against subject a."""
    if not a.is_square():
        raise ValueError("subject must be square")
    if not a.is_symmetric():
        raise NotSymmetric("subject matrix is not symmetric")
    n = a.rows
    for q in cert.factors:
        if q.cols != n:
            raise ValueError(f"factor has {q.cols} columns, subject dimension is {n}")
        if q.nvars != a.nvars:
            raise ValueError("factor and subject disagree on variable count")
    if cert.c.nvars != a.nvars:
        raise ValueError("scalar c and subject disagree on variable count")
    c, qs = cert.c, cert.factors
    failures = []
    if c.is_zero():
        failures.append("c is nonzero")
    if not identity_holds([(c, c, a)], [(q.transpose(), T) for q in qs]):
        failures.append("c^2*A = sum(Q^t*Q)")
    return failures


# ---------------------------------------------------------------------------
# preordering generated by commuting diagonal matrices


# r generators have 2^r ascending products; past this many, refuse them
MAX_GENERATORS = 16


def _check_generator_count(r):
    """ValueError for r above MAX_GENERATORS, the same text wherever it is checked."""
    if r > MAX_GENERATORS:
        raise ValueError(
            f"{r} generators exceed the cap of {MAX_GENERATORS} "
            f"({2**MAX_GENERATORS} ascending products)"
        )


def tmodule_index_sets(r):
    """All subsets of {1..r} as ascending tuples, ordered by size then lex.

    ValueError for r above MAX_GENERATORS, before any subset is built.
    """
    if r < 0:
        raise ValueError("generator count must be nonnegative")
    _check_generator_count(r)
    out = []
    for size in range(r + 1):
        out.extend(itertools.combinations(range(1, r + 1), size))
    return tuple(out)


def _ascending_product(generators, idx):
    """The product of generators[k - 1] over k in idx, ascending; None (the identity) for ()."""
    prod = None
    for k in idx:
        prod = generators[k - 1] if prod is None else prod @ generators[k - 1]
    return prod


def tmodule_generators(b_list):
    """Ascending products of diagonal generators, one per index subset.

    The empty product (the identity) comes first; diagonal matrices
    commute, so every product is again diagonal and symmetric.
    """
    b_list = list(b_list)
    if not b_list:
        raise ValueError("no generator matrices")
    n = b_list[0].rows
    nvars = b_list[0].nvars
    for b in b_list:
        if not b.is_diagonal():
            raise ValueError("generator matrices must be diagonal")
        if b.rows != n or b.cols != n or b.nvars != nvars:
            raise ValueError("generator matrices must share dimension and variable count")
    identity = PolyMatrix.identity(n, nvars)
    products = (_ascending_product(b_list, idx) for idx in tmodule_index_sets(len(b_list)))
    return tuple(identity if prod is None else prod for prod in products)


def construct_module_element(f_list, coeffs):
    """sum_j sum_l a_jl^t * f_l * a_jl for symmetric f_l; always symmetric."""
    f_list = list(f_list)
    if not f_list:
        raise ValueError("no module generators")
    nvars = f_list[0].nvars
    for f in f_list:
        if not f.is_symmetric():
            raise NotSymmetric("module generators must be symmetric")
        if f.nvars != nvars:
            raise ValueError("module generators must share variable count")
    coeffs = [list(row) for row in coeffs]
    for row in coeffs:
        if len(row) != len(f_list):
            raise ValueError(f"each coefficient row needs {len(f_list)} entries")
    out_dim = coeffs[0][0].cols if coeffs else f_list[0].rows
    terms = []
    for row in coeffs:
        for f, a in zip(f_list, row):
            if a.rows != f.rows:
                raise ValueError(
                    f"coefficient is {a.rows}x{a.cols}, generator dimension is {f.rows}"
                )
            if a.cols != out_dim:
                raise ValueError("coefficient column counts disagree")
            terms.append((a.transpose(), f))
    return congruence_sum(out_dim, nvars, terms)


def membership_failures(element, generators, cert):
    """Broken-identity list for a ModuleMembershipCertificate."""
    generators = list(generators)
    r = len(generators)
    if not generators:
        raise ValueError("no generator matrices")
    _check_generator_count(r)
    gdim = generators[0].rows
    nvars = generators[0].nvars
    for g in generators:
        if not g.is_square() or g.rows != gdim or g.nvars != nvars:
            raise ValueError("generator matrices must share dimension and variable count")
    if element.nvars != nvars:
        raise ValueError("element and generators disagree on variable count")
    if not element.is_square():
        raise ValueError("element must be square")
    n = element.rows
    for idx in cert.generator_index_sets:
        if any(k > r for k in idx):
            raise ValueError(f"index set {idx} exceeds generator count {r}")
    products = {}  # index set -> its ascending product, multiplied once per call
    terms = []
    for idx, ys in zip(cert.generator_index_sets, cert.coefficients):
        if idx not in products:
            products[idx] = _ascending_product(generators, idx)
        prod = products[idx]
        for y in ys:
            if y.rows != gdim or y.cols != n:
                raise ValueError(f"coefficient must be {gdim}x{n}, got {y.rows}x{y.cols}")
            if y.nvars != nvars:
                raise ValueError("coefficient and generators disagree on variable count")
            terms.append((y.transpose(), T) if prod is None else (y.transpose(), prod, T))
    if not identity_holds([(element,)], terms):
        return ["element = sum(y^t*G_idx*y)"]
    return []


def knk_element(k, n, a_list, x_list, nvars=1):
    """sum_l x_l^t * a_l * x_l with a_l k x k and x_l k x n.

    When every a_l is PSD at a point, the sum is too.  nvars is only
    consulted when both lists are empty (the zero matrix needs a variable
    count).
    """
    a_list = list(a_list)
    x_list = list(x_list)
    if len(a_list) != len(x_list):
        raise ValueError("a_list and x_list lengths differ")
    if k < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if a_list:
        nvars = a_list[0].nvars
    terms = []
    for a, x in zip(a_list, x_list):
        if a.rows != k or a.cols != k:
            raise ValueError(f"expected {k}x{k} inner matrix, got {a.rows}x{a.cols}")
        if x.rows != k or x.cols != n:
            raise ValueError(f"expected {k}x{n} factor, got {x.rows}x{x.cols}")
        if a.nvars != nvars or x.nvars != nvars:
            raise ValueError("entries disagree on variable count")
        terms.append((x.transpose(), a))
    return congruence_sum(n, nvars, terms)


def choi_type_fixture():
    """A 2x2 matrix in two variables that is pointwise PSD everywhere."""
    e = lambda s: parse_polynomial(s, 2)
    return PolyMatrix.from_rows(
        [
            [e("1 + t1^4*t2^2"), e("t1*t2")],
            [e("t1*t2"), e("1 + t1^2*t2^4")],
        ]
    )


# ---------------------------------------------------------------------------
# certificate file format


@dataclass(frozen=True)
class EquivCertificatePackage:
    """Equivalence witness plus the second subject it relates to."""

    witness: EquivWitness
    subject_b: PolyMatrix


@dataclass(frozen=True)
class MembershipCertificatePackage:
    """Membership certificate plus the generator list it indexes into."""

    certificate: ModuleMembershipCertificate
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))


_HEADER = f"# generated-by polydiag {__version__}"
_SECTION_RE = re.compile(r"^\[([a-z]+)(?:[ \t]+(.+?))?\]$")
_SCALE_RE = re.compile(r"^(-?\d+)/(\d+)$")


# Each kind's sections are stated once, by its layout function below, which
# runs twice.  With a _Writer it emits the sections of the payload it is
# given; with a _Reader and no payload it parses the same sections in the
# same order and builds the payload.  A layout hands each section
# `p and p.part`: the part to write, or None when reading.  items(key, values)
# walks a run counted by the meta key `key`; check(ok, message) refuses what
# the reader cannot read back: a ParseError on reading, a ValueError on writing.


def _check_matrix(io, name, mat, rows, cols):
    """io.check of section [matrix name]: mat's nvars, and shape when rows is given."""
    if mat.nvars != io.nvars:
        io.check(False, f"section [matrix {name}]: expected nvars {io.nvars}, got {mat.nvars}")
    if rows is not None and (mat.rows, mat.cols) != (rows, cols):
        io.check(False, f"section [matrix {name}]: expected {rows}x{cols}, got {mat.rows}x{mat.cols}")


class _Writer:
    """Emits each section a layout names from the payload's parts."""

    def __init__(self, nvars):
        self.lines = []
        self.counts = {}
        self.nvars = nvars

    def items(self, key, values):
        self.counts[key] = len(values)
        return values

    def matrix(self, name, mat, rows=None, cols=None):
        _check_matrix(self, name, mat, rows, cols)
        self.lines += [f"[matrix {name}]", *_matrix_lines(mat)]
        return mat

    def matrices(self, prefix, mats, rows, cols):
        for l, mat in enumerate(mats, start=1):
            self.matrix(f"{prefix}_{l}", mat, rows, cols)
        return mats

    def poly(self, name, poly):
        if poly.nvars != self.nvars:
            self.check(False, f"section [poly {name}]: expected nvars {self.nvars}, got {poly.nvars}")
        self.lines += [f"[poly {name}]", str(poly)]
        return poly

    def trace(self, name, trace):
        self.lines.append(f"[trace {name}]")
        self.lines += [f"{i} {j} {PivotTrace.scale(i, j)}/1" for i, j in trace.pivots]
        return trace

    def indexset(self, name, idx):
        self.lines += [f"[indexset {name}]", _index_line(idx)]
        return idx

    def check(self, ok, message):
        if not ok:
            raise ValueError(message)


class _Reader:
    """Parses each section a layout names, in file order, with its checks;
    _read reads a [poly], [trace] or [indexset] body, and lineno(k)
    numbers the data line lines[k] for a ParseError."""

    def __init__(self, text):
        self.lines, self.lineno, self.sections = _split_sections(text)
        self.pos = 0
        self.nvars = None
        self.counts = {}
        self.memo = _LineMemo()  # each distinct header, polynomial and trace line, parsed once

    def expect(self, header):
        if self.pos >= len(self.sections):
            raise ParseError(f"missing section {header}")
        got, start, end = self.sections[self.pos]
        if got != header:
            raise ParseError(f"line {self.lineno(start)}: expected section {header}, found {got}")
        self.pos += 1
        return self.lines[start + 1 : end], start

    def done(self):
        if self.pos != len(self.sections):
            got, start, _end = self.sections[self.pos]
            raise ParseError(f"line {self.lineno(start)}: unexpected extra section {got}")

    def items(self, key, _values):
        return itertools.repeat(None, self.counts[key])

    def matrix(self, name, _mat, rows=None, cols=None):
        body, start = self.expect(f"[matrix {name}]")
        try:
            # numbered from the section's first data line, as a matrix file's
            mat = _parse_matrix_lines(body, self.memo)
        except ParseError as exc:
            raise ParseError(f"section [matrix {name}] near line {self.lineno(start)}: {exc}") from None
        _check_matrix(self, name, mat, rows, cols)
        return mat

    def matrices(self, prefix, _mats, rows, cols):
        """The run of sections [matrix <prefix>_1], [matrix <prefix>_2], ..."""
        mats = []
        while (
            self.pos < len(self.sections)
            and self.sections[self.pos][0] == f"[matrix {prefix}_{len(mats) + 1}]"
        ):
            mats.append(self.matrix(f"{prefix}_{len(mats) + 1}", None, rows, cols))
        return tuple(mats)

    def _read(self, header, read, one_line=True):
        """[read(line) for each body line of section header], a ParseError from
        read prefixed with its line's number; one_line: the section must hold
        exactly one line, tested before any line is read."""
        body, start = self.expect(header)
        if one_line and len(body) != 1:
            raise ParseError(f"section {header} near line {self.lineno(start)} must hold exactly one line")
        values = []
        for k, line in enumerate(body, start + 1):
            try:
                values.append(read(line))
            except ParseError as exc:
                raise ParseError(f"line {self.lineno(k)}: {exc}") from None
        return values

    def poly(self, name, _poly):
        return self._read(f"[poly {name}]", lambda line: self.memo[self.nvars, line])[0]

    def trace(self, name, _trace):
        pivots = self._read(f"[trace {name}]", lambda line: self.memo[_pivot, line], one_line=False)
        return PivotTrace(tuple(pivots))

    def indexset(self, name, _idx):
        return self._read(f"[indexset {name}]", _index_set)[0]

    def check(self, ok, message):
        if not ok:
            raise ParseError(message)


def _pivot(line):
    """(i, j) of a trace line 'i j num/den', whose scale must be written
    PivotTrace.scale(i, j) over 1."""
    fields = line.split()
    if len(fields) != 3:
        raise ParseError(f"trace lines are 'i j num/den', got {line!r}")
    try:
        i, j = _decimal_int(fields[0]), _decimal_int(fields[1])
    except ValueError:
        raise ParseError(f"bad pivot indices in {line!r}") from None
    m = _SCALE_RE.match(fields[2])
    if not m:
        raise ParseError(f"bad scale {fields[2]!r}, expected num/den")
    num, den = map(_int_literal, m.groups())
    if den == 0:
        raise ParseError("zero denominator in scale")
    if not 1 <= i <= j:
        raise ParseError(f"pivot pair ({i},{j}) must satisfy 1 <= i <= j")
    if num <= 0:
        raise ParseError("pivot scale must be positive")
    # only the written form, so that the file re-formats to its own bytes
    scale = PivotTrace.scale(i, j)
    if fields[2] != f"{scale}/1":
        raise ParseError(f"pivot ({i},{j}) has scale {scale}, got {fields[2]}")
    return i, j


def _index_line(idx):
    """The [indexset] line of the indices idx, '-' for none."""
    return " ".join(str(k) for k in idx) if idx else "-"


def _index_set(line):
    """The indices of an [indexset] line, '-' for none."""
    if line == "-":
        return ()
    try:
        idx = tuple(_decimal_int(f) for f in line.split())
    except ValueError:
        raise ParseError(f"bad index set {line!r}") from None
    if any(k < 1 for k in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ParseError("index set must be ascending positive integers")
    return idx


def _diag_layout(io, dim, cert):
    x_plus = io.matrix("X_plus", cert and cert.X_plus, dim, dim)
    x_minus = io.matrix("X_minus", cert and cert.X_minus, dim, dim)
    d = io.matrix("D", cert and cert.D, dim, dim)
    return DiagCertificate(x_plus, x_minus, d, io.poly("w", cert and cert.w))


def _bundle_layout(io, dim, bundle):
    branches = []
    for k, branch in enumerate(io.items("branches", bundle and bundle.branches), start=1):
        cert, trace = branch or (None, None)
        d = io.matrix(f"D_{k}", cert and cert.D, dim, dim)
        x_plus = io.matrix(f"X_plus_{k}", cert and cert.X_plus, dim, dim)
        x_minus = io.matrix(f"X_minus_{k}", cert and cert.X_minus, dim, dim)
        w = io.poly(f"w_{k}", cert and cert.w)
        trace = io.trace(str(k), trace)
        count = len(trace.pivots)
        io.check(count < dim, f"section [trace {k}]: {count} pivots for dim {dim}, at most {dim - 1} fit")
        for size, (i, j) in zip(range(dim, 0, -1), trace.pivots):  # each block one smaller
            io.check(j <= size, f"section [trace {k}]: pivot ({i},{j}) outside its {size}x{size} block")
        branches.append((DiagCertificate(x_plus, x_minus, d, w), trace))
    return DiagBundle(tuple(branches))


def _equiv_layout(io, dim, pkg):
    wit = pkg and pkg.witness
    subject_b = io.matrix("subject_b", pkg and pkg.subject_b, dim, dim)
    io.check(subject_b.is_symmetric(), "section [matrix subject_b]: second subject is not symmetric")
    s1 = io.poly("s1", wit and wit.s1)
    s1_squares = tuple(
        io.poly(f"s1_sq_{k}", f)
        for k, f in enumerate(io.items("s1_squares", wit and wit.s1_squares), start=1)
    )
    s2 = io.poly("s2", wit and wit.s2)
    s2_squares = tuple(
        io.poly(f"s2_sq_{k}", f)
        for k, f in enumerate(io.items("s2_squares", wit and wit.s2_squares), start=1)
    )
    z = io.poly("z", wit and wit.z)
    x_plus = io.matrix("x_plus", wit and wit.x_plus, dim, dim)
    x_minus = io.matrix("x_minus", wit and wit.x_minus, dim, dim)
    wit = EquivWitness(s1, s1_squares, s2, s2_squares, z, x_plus, x_minus)
    return EquivCertificatePackage(wit, subject_b)


def _sos_layout(io, dim, cert):
    c = io.poly("c", cert and cert.c)
    factors = []
    for k, q in enumerate(io.items("factors", cert and cert.factors), start=1):
        q = io.matrix(f"Q_{k}", q)
        io.check(q.cols == dim, f"section [matrix Q_{k}]: expected {dim} columns, got {q.cols}")
        factors.append(q)
    return SosMatrixCertificate(c, tuple(factors))


def _membership_layout(io, dim, pkg):
    gens = []
    for k, g in enumerate(io.items("generators", pkg and pkg.generators), start=1):
        g = io.matrix(f"generator_{k}", g)
        where = f"section [matrix generator_{k}]"
        io.check(g.rows == g.cols, f"{where}: generators must be square")
        io.check(not gens or g.rows == gens[0].rows, f"{where}: generators must share dimension")
        gens.append(g)
    cert = pkg and pkg.certificate
    terms = cert and tuple(zip(cert.generator_index_sets, cert.coefficients))
    index_sets = []
    coefficients = []
    for j, term in enumerate(io.items("terms", terms), start=1):
        idx, ys = term or (None, None)
        idx = io.indexset(str(j), idx)
        io.check(
            all(k <= len(gens) for k in idx),
            f"section [indexset {j}]: index exceeds generator count {len(gens)}",
        )
        ys = io.matrices(f"coeff_{j}", ys, gens[0].rows, dim)
        io.check(ys, f"term {j} has no coefficient matrices")
        index_sets.append(idx)
        coefficients.append(tuple(ys))
    cert = ModuleMembershipCertificate(tuple(index_sets), tuple(coefficients))
    return MembershipCertificatePackage(cert, tuple(gens))


class _Kind(NamedTuple):
    layout: Callable  # (io, dim, payload or None) -> payload
    counts: tuple  # meta keys counting the layout's items, in file order
    shape: Callable  # payload -> (subject dimension, nvars)
    failures: Callable  # (subject, payload) -> broken identities


# The verifiers are looked up when called, so a caller that replaces one
# (a tracer, a test counting calls) sees it used here too.
_KINDS = {
    "diag": _Kind(
        _diag_layout,
        (),
        lambda p: (p.subject_dim, p.w.nvars),
        lambda a, p: diag_certificate_failures(a, p),
    ),
    "bundle": _Kind(
        _bundle_layout,
        ("branches",),
        lambda p: (p.subject_dim, p.branches[0][0].w.nvars),
        lambda a, p: bundle_certificate_failures(a, p),
    ),
    "equiv": _Kind(
        _equiv_layout,
        ("s1_squares", "s2_squares"),
        lambda p: (p.witness.x_plus.rows, p.witness.z.nvars),
        lambda a, p: equiv_witness_failures(a, p.subject_b, p.witness),
    ),
    "sos": _Kind(
        _sos_layout,
        ("factors",),
        lambda p: (p.factors[0].cols, p.c.nvars),
        lambda a, p: sos_matrix_failures(a, p),
    ),
    "membership": _Kind(
        _membership_layout,
        ("generators", "terms"),
        lambda p: (p.certificate.coefficients[0][0].cols, p.generators[0].nvars),
        lambda a, p: membership_failures(a, p.generators, p.certificate),
    ),
}

def _format(kind, payload):
    spec = _KINDS[kind]
    dim, nvars = spec.shape(payload)
    out = _Writer(nvars)
    spec.layout(out, dim, payload)
    meta = [("kind", kind), ("dim", dim), ("nvars", nvars)]
    meta += [(key, out.counts[key]) for key in spec.counts]
    return "\n".join([_HEADER, "[meta]", *(f"{k} {v}" for k, v in meta), *out.lines]) + "\n"


def format_diag_certificate(cert):
    return _format("diag", cert)


def format_bundle_certificate(bundle):
    return _format("bundle", bundle)


def format_equiv_certificate(pkg):
    wit = pkg.witness
    if not wit.s1_squares or not wit.s2_squares:
        raise ValueError("cannot serialize a witness without square decompositions")
    return _format("equiv", pkg)


def format_sos_certificate(cert):
    if not cert.factors:
        raise ValueError("cannot serialize an SOS certificate without factors")
    return _format("sos", cert)


def format_membership_certificate(pkg):
    cert = pkg.certificate
    if not pkg.generators:
        raise ValueError("cannot serialize a membership certificate without generators")
    if not cert.coefficients or not all(cert.coefficients):
        raise ValueError("cannot serialize a membership certificate without coefficients")
    return _format("membership", pkg)


def _split_sections(text):
    """(lines, lineno, sections): _data_lines(text), and (header, start, end)
    per section: its header is lines[start] as the writer writes it, [tag
    name] or [tag], and its body lines[start + 1:end].  A line that starts
    with '[' but is no header is a body line."""
    lines, lineno = _data_lines(text)
    heads = [(k, m) for k, line in enumerate(lines) if line[0] == "[" and (m := _SECTION_RE.match(line))]
    if lines and not (heads and heads[0][0] == 0):
        raise ParseError(f"line {lineno(0)}: data before the first section header")
    ends = [k for k, _m in heads[1:]] + [len(lines)]
    return lines, lineno, [
        (f"[{m[1]} {m[2]}]" if m[2] else f"[{m[1]}]", k, end) for (k, m), end in zip(heads, ends)
    ]


def _parse_meta(reader, body, start, required, optional=()):
    """key -> (k, value) of a [meta] section lines[start]; body is its lines."""
    seen = {}
    for k, line in enumerate(body, start + 1):
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise ParseError(f"line {reader.lineno(k)}: meta lines are 'key value', got {line!r}")
        key, value = fields
        if key in seen:
            raise ParseError(f"line {reader.lineno(k)}: duplicate meta key {key!r}")
        if key not in required and key not in optional:
            raise ParseError(f"line {reader.lineno(k)}: unknown meta key {key!r}")
        seen[key] = (k, value)
    for key in required:
        if key not in seen:
            raise ParseError(f"meta section at line {reader.lineno(start)} is missing key {key!r}")
    return seen


def _meta_int(reader, seen, key, minimum=1, maximum=None):
    k, value = seen[key]
    try:
        n = _decimal_int(value)
    except ValueError:
        raise ParseError(
            f"line {reader.lineno(k)}: meta key {key!r} must be an integer, got {value!r}"
        ) from None
    if n < minimum:
        raise ParseError(f"line {reader.lineno(k)}: meta key {key!r} must be >= {minimum}, got {n}")
    if maximum is not None and n > maximum:
        raise ParseError(f"line {reader.lineno(k)}: meta key {key!r} must be <= {maximum}, got {n}")
    return n


def parse_certificate(text):
    """Parse a certificate file; returns (kind, payload).

    Payload by kind: diag -> DiagCertificate, bundle -> DiagBundle,
    equiv -> EquivCertificatePackage, sos -> SosMatrixCertificate,
    membership -> MembershipCertificatePackage.
    """
    reader = _Reader(text)
    if not reader.sections:
        raise ParseError("empty certificate file")
    optional = [key for spec in _KINDS.values() for key in spec.counts]
    meta = _parse_meta(reader, *reader.expect("[meta]"), ("kind", "dim", "nvars"), optional)
    k, kind = meta["kind"]
    if kind not in _KINDS:
        raise ParseError(f"line {reader.lineno(k)}: unknown certificate kind {kind!r}")
    spec = _KINDS[kind]
    for key, (k, _value) in meta.items():
        if key not in ("kind", "dim", "nvars") and key not in spec.counts:
            raise ParseError(f"line {reader.lineno(k)}: meta key {key!r} does not belong to kind {kind!r}")
    dim = _meta_int(reader, meta, "dim")
    reader.nvars = _meta_int(reader, meta, "nvars", maximum=MAX_NVARS)
    for key in spec.counts:
        if key not in meta:
            raise ParseError(f"meta section is missing key {key!r} for kind {kind!r}")
        reader.counts[key] = _meta_int(reader, meta, key)
    payload = spec.layout(reader, dim, None)
    reader.done()
    return kind, payload
