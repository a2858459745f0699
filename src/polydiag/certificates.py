"""Certificate types, verifiers, and the certificate file format.

A diagonalization certificate (X_plus, X_minus, D, w) claims that a
symmetric polynomial matrix A is congruent to the diagonal matrix D up to
square scalar factors:

    X_plus*X_minus = X_minus*X_plus = w*I
    D = X_minus*A*X_minus^t
    w^2*A = X_plus*D*X_plus^t

All identities are exact polynomial equalities.  Because congruences
preserve pointwise positive semidefiniteness in both directions and w^2 is
a square, D(s) is PSD exactly where A(s) is, at every rational point s.

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
exactly what failed.

Certificate files are sectioned text: a `[meta]` section with `key value`
lines (kind, dim, nvars, plus per-kind counts), then `[matrix <name>]`
sections in the matrix file format, `[poly <name>]` sections holding one
polynomial, `[trace <k>]` sections with `i j num/den` pivot lines, and
`[indexset <j>]` sections with one ascending index line (`-` when empty).
Files are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .arith import Polynomial, parse_polynomial
from .errors import InternalIdentityFailure, NotSymmetric, ParseError
from .polymat import PolyMatrix, format_matrix, parse_matrix


# ---------------------------------------------------------------------------
# certificate data types


@dataclass(frozen=True)
class DiagCertificate:
    """Claims subject A is congruent to diagonal D, scaled by w."""

    subject_dim: int
    X_plus: PolyMatrix
    X_minus: PolyMatrix
    D: PolyMatrix
    w: Polynomial

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
    scales: the positive rational factor relating the pivoted (1,1) entry
    to the averaged pivot value at that step (1 for i = j, 2 for i < j).
    """

    pivots: tuple
    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "pivots", tuple(tuple(p) for p in self.pivots))
        object.__setattr__(self, "scales", tuple(Fraction(s) for s in self.scales))
        if len(self.pivots) != len(self.scales):
            raise ValueError("pivot and scale counts differ")
        for i, j in self.pivots:
            if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= j):
                raise ValueError(f"bad pivot pair ({i},{j})")
        for s in self.scales:
            if s <= 0:
                raise ValueError(f"pivot scale must be positive, got {s}")


@dataclass(frozen=True)
class DiagBundle:
    """All diagonalization branches of one subject, with their pivot traces."""

    subject_dim: int
    branches: tuple  # of (DiagCertificate, PivotTrace)

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
            if any(not (isinstance(k, int) and k >= 1) for k in idx):
                raise ValueError(f"bad index set {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index set {idx} is not strictly ascending")


# ---------------------------------------------------------------------------
# diagonalization certificate verification


def diag_certificate_failures(a, cert):
    """Broken-identity list for a DiagCertificate against subject a."""
    n = cert.subject_dim
    if a.rows != n or a.cols != n:
        raise ValueError(f"subject is {a.rows}x{a.cols}, certificate claims dimension {n}")
    if a.nvars != cert.w.nvars:
        raise ValueError("subject and certificate disagree on variable count")
    if not a.is_symmetric():
        raise NotSymmetric("subject matrix is not symmetric")
    w_id = PolyMatrix.identity(n, a.nvars) * cert.w
    failures = []
    if cert.X_plus @ cert.X_minus != w_id:
        failures.append("X_plus*X_minus = w*I")
    if cert.X_minus @ cert.X_plus != w_id:
        failures.append("X_minus*X_plus = w*I")
    if not cert.D.is_diagonal():
        failures.append("D is diagonal")
    if cert.D != cert.X_minus @ a @ cert.X_minus.transpose():
        failures.append("D = X_minus*A*X_minus^t")
    if (cert.w * cert.w) * a != cert.X_plus @ cert.D @ cert.X_plus.transpose():
        failures.append("w^2*A = X_plus*D*X_plus^t")
    return failures


def bundle_certificate_failures(a, bundle):
    """Broken identities across all branches, tagged with branch numbers."""
    if a.rows != bundle.subject_dim or a.cols != bundle.subject_dim:
        raise ValueError(
            f"subject is {a.rows}x{a.cols}, bundle claims dimension {bundle.subject_dim}"
        )
    failures = []
    for k, (cert, _trace) in enumerate(bundle.branches, start=1):
        failures.extend(f"branch {k}: {f}" for f in diag_certificate_failures(a, cert))
    return failures


# ---------------------------------------------------------------------------
# equivalence witness calculus


def _sum_of_squares(squares, nvars):
    acc = Polynomial.zero(nvars)
    for f in squares:
        acc = acc + f * f
    return acc


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
    failures = []
    if wit.s1 != _sum_of_squares(wit.s1_squares, a1.nvars):
        failures.append("s1 = sum of its stored squares")
    if wit.s2 != _sum_of_squares(wit.s2_squares, a1.nvars):
        failures.append("s2 = sum of its stored squares")
    if wit.s1.is_zero():
        failures.append("s1 is nonzero")
    if wit.s2.is_zero():
        failures.append("s2 is nonzero")
    z_id = PolyMatrix.identity(n, a1.nvars) * wit.z
    if wit.x_minus @ wit.x_plus != z_id:
        failures.append("x_minus*x_plus = z*I")
    if wit.x_plus @ wit.x_minus != z_id:
        failures.append("x_plus*x_minus = z*I")
    if wit.s1 * a1 != wit.s2 * (wit.x_plus @ a2 @ wit.x_plus.transpose()):
        failures.append("s1*a1 = s2*x_plus*a2*x_plus^t")
    return failures


def symmetrize_witness(a1, a2, wit):
    """Turn a witness for a1 ~ a2 into one for a2 ~ a1.

    Multiplying s1*a1 = s2*x_plus*a2*x_plus^t by x_minus on both sides and
    using x_minus*x_plus = z*I gives (s2*z^2)*a2 = s1*x_minus*a1*x_minus^t,
    so the roles of x_plus and x_minus swap and s1' = s2*z^2 picks up the
    square factor z on each stored square.
    """
    fails = equiv_witness_failures(a1, a2, wit)
    if fails:
        raise ValueError("input witness does not verify: " + "; ".join(fails))
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
    back = equiv_witness_failures(a2, a1, out)
    if back:
        raise InternalIdentityFailure("symmetrized witness broke: " + "; ".join(back))
    return out


def compose_witnesses(a1, a2, a3, w12, w23):
    """Chain witnesses a1 ~ a2 and a2 ~ a3 into a witness for a1 ~ a3.

    Substituting the second relation into the first multiplies the s
    factors pairwise (the product of two sums of squares is the sum of the
    pairwise-product squares) and multiplies the congruence factors.
    """
    fails = equiv_witness_failures(a1, a2, w12)
    if fails:
        raise ValueError("first witness does not verify: " + "; ".join(fails))
    fails = equiv_witness_failures(a2, a3, w23)
    if fails:
        raise ValueError("second witness does not verify: " + "; ".join(fails))
    out = EquivWitness(
        s1=w23.s1 * w12.s1,
        s1_squares=tuple(f * g for f in w12.s1_squares for g in w23.s1_squares),
        s2=w12.s2 * w23.s2,
        s2_squares=tuple(f * g for f in w12.s2_squares for g in w23.s2_squares),
        z=w12.z * w23.z,
        x_plus=w12.x_plus @ w23.x_plus,
        x_minus=w23.x_minus @ w12.x_minus,
    )
    back = equiv_witness_failures(a1, a3, out)
    if back:
        raise InternalIdentityFailure("composed witness broke: " + "; ".join(back))
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
    failures = []
    if cert.c.is_zero():
        failures.append("c is nonzero")
    acc = PolyMatrix.zeros(n, n, a.nvars)
    for q in cert.factors:
        acc = acc + q.transpose() @ q
    if (cert.c * cert.c) * a != acc:
        failures.append("c^2*A = sum(Q^t*Q)")
    return failures


# ---------------------------------------------------------------------------
# preordering generated by commuting diagonal matrices


def tmodule_index_sets(r):
    """All subsets of {1..r} as ascending tuples, ordered by size then lex."""
    if r < 0:
        raise ValueError("generator count must be nonnegative")
    out = []
    for size in range(r + 1):
        out.extend(itertools.combinations(range(1, r + 1), size))
    return tuple(out)


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
    out = []
    for idx in tmodule_index_sets(len(b_list)):
        prod = PolyMatrix.identity(n, nvars)
        for k in idx:
            prod = prod @ b_list[k - 1]
        out.append(prod)
    return tuple(out)


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
    acc = PolyMatrix.zeros(out_dim, out_dim, nvars)
    for row in coeffs:
        for f, a in zip(f_list, row):
            if a.rows != f.rows:
                raise ValueError(
                    f"coefficient is {a.rows}x{a.cols}, generator dimension is {f.rows}"
                )
            if a.cols != out_dim:
                raise ValueError("coefficient column counts disagree")
            acc = acc + a.transpose() @ f @ a
    return acc


def membership_failures(element, generators, cert):
    """Broken-identity list for a ModuleMembershipCertificate."""
    generators = list(generators)
    r = len(generators)
    if not generators:
        raise ValueError("no generator matrices")
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
    acc = PolyMatrix.zeros(n, n, nvars)
    for idx, ys in zip(cert.generator_index_sets, cert.coefficients):
        prod = PolyMatrix.identity(gdim, nvars)
        for k in idx:
            prod = prod @ generators[k - 1]
        for y in ys:
            if y.rows != gdim or y.cols != n:
                raise ValueError(f"coefficient must be {gdim}x{n}, got {y.rows}x{y.cols}")
            if y.nvars != nvars:
                raise ValueError("coefficient and generators disagree on variable count")
            acc = acc + y.transpose() @ prod @ y
    if acc != element:
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
    acc = PolyMatrix.zeros(n, n, nvars)
    for a, x in zip(a_list, x_list):
        if a.rows != k or a.cols != k:
            raise ValueError(f"expected {k}x{k} inner matrix, got {a.rows}x{a.cols}")
        if x.rows != k or x.cols != n:
            raise ValueError(f"expected {k}x{n} factor, got {x.rows}x{x.cols}")
        if a.nvars != nvars or x.nvars != nvars:
            raise ValueError("entries disagree on variable count")
        acc = acc + x.transpose() @ a @ x
    return acc


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

CERT_KINDS = ("diag", "bundle", "equiv", "sos", "membership")


def _matrix_section(name, mat):
    return [f"[matrix {name}]"] + format_matrix(mat).rstrip("\n").split("\n")


def _poly_section(name, poly):
    return [f"[poly {name}]", str(poly)]


def _meta_section(pairs):
    lines = ["[meta]"]
    lines.extend(f"{k} {v}" for k, v in pairs)
    return lines


def format_diag_certificate(cert):
    lines = [_HEADER]
    lines += _meta_section(
        [("kind", "diag"), ("dim", cert.subject_dim), ("nvars", cert.w.nvars)]
    )
    lines += _matrix_section("X_plus", cert.X_plus)
    lines += _matrix_section("X_minus", cert.X_minus)
    lines += _matrix_section("D", cert.D)
    lines += _poly_section("w", cert.w)
    return "\n".join(lines) + "\n"


def format_bundle_certificate(bundle):
    nvars = bundle.branches[0][0].w.nvars
    lines = [_HEADER]
    lines += _meta_section(
        [
            ("kind", "bundle"),
            ("dim", bundle.subject_dim),
            ("nvars", nvars),
            ("branches", len(bundle.branches)),
        ]
    )
    for k, (cert, trace) in enumerate(bundle.branches, start=1):
        lines += _matrix_section(f"D_{k}", cert.D)
        lines += _matrix_section(f"X_plus_{k}", cert.X_plus)
        lines += _matrix_section(f"X_minus_{k}", cert.X_minus)
        lines += _poly_section(f"w_{k}", cert.w)
        lines.append(f"[trace {k}]")
        for (i, j), s in zip(trace.pivots, trace.scales):
            lines.append(f"{i} {j} {s.numerator}/{s.denominator}")
    return "\n".join(lines) + "\n"


def format_equiv_certificate(pkg):
    wit = pkg.witness
    if not wit.s1_squares or not wit.s2_squares:
        raise ValueError("cannot serialize a witness without square decompositions")
    lines = [_HEADER]
    lines += _meta_section(
        [
            ("kind", "equiv"),
            ("dim", wit.x_plus.rows),
            ("nvars", wit.z.nvars),
            ("s1_squares", len(wit.s1_squares)),
            ("s2_squares", len(wit.s2_squares)),
        ]
    )
    lines += _matrix_section("subject_b", pkg.subject_b)
    lines += _poly_section("s1", wit.s1)
    for k, f in enumerate(wit.s1_squares, start=1):
        lines += _poly_section(f"s1_sq_{k}", f)
    lines += _poly_section("s2", wit.s2)
    for k, f in enumerate(wit.s2_squares, start=1):
        lines += _poly_section(f"s2_sq_{k}", f)
    lines += _poly_section("z", wit.z)
    lines += _matrix_section("x_plus", wit.x_plus)
    lines += _matrix_section("x_minus", wit.x_minus)
    return "\n".join(lines) + "\n"


def format_sos_certificate(cert):
    if not cert.factors:
        raise ValueError("cannot serialize an SOS certificate without factors")
    lines = [_HEADER]
    lines += _meta_section(
        [
            ("kind", "sos"),
            ("dim", cert.factors[0].cols),
            ("nvars", cert.c.nvars),
            ("factors", len(cert.factors)),
        ]
    )
    lines += _poly_section("c", cert.c)
    for k, q in enumerate(cert.factors, start=1):
        lines += _matrix_section(f"Q_{k}", q)
    return "\n".join(lines) + "\n"


def format_membership_certificate(pkg):
    cert = pkg.certificate
    gens = pkg.generators
    if not gens:
        raise ValueError("cannot serialize a membership certificate without generators")
    if not cert.coefficients or not all(cert.coefficients):
        raise ValueError("cannot serialize a membership certificate without coefficients")
    dim = cert.coefficients[0][0].cols
    lines = [_HEADER]
    lines += _meta_section(
        [
            ("kind", "membership"),
            ("dim", dim),
            ("nvars", gens[0].nvars),
            ("generators", len(gens)),
            ("terms", len(cert.generator_index_sets)),
        ]
    )
    for k, g in enumerate(gens, start=1):
        lines += _matrix_section(f"generator_{k}", g)
    for j, (idx, ys) in enumerate(zip(cert.generator_index_sets, cert.coefficients), start=1):
        lines.append(f"[indexset {j}]")
        lines.append(" ".join(str(k) for k in idx) if idx else "-")
        for l, y in enumerate(ys, start=1):
            lines += _matrix_section(f"coeff_{j}_{l}", y)
    return "\n".join(lines) + "\n"


def _split_sections(text):
    """(tag, name, body_lines, lineno) per section; comments/blanks dropped."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = (m.group(1), m.group(2) or "", [], lineno)
            sections.append(current)
        else:
            if current is None:
                raise ParseError(f"line {lineno}: data before the first section header")
            current[2].append((lineno, line))
    return sections


class _SectionReader:
    def __init__(self, sections):
        self.sections = sections
        self.pos = 0

    def expect(self, tag, name):
        if self.pos >= len(self.sections):
            raise ParseError(f"missing section [{tag} {name}]".replace(" ]", "]"))
        got_tag, got_name, body, lineno = self.sections[self.pos]
        if got_tag != tag or got_name != name:
            want = f"[{tag} {name}]" if name else f"[{tag}]"
            raise ParseError(f"line {lineno}: expected section {want}, found [{got_tag} {got_name}]")
        self.pos += 1
        return body, lineno

    def done(self):
        if self.pos != len(self.sections):
            _tag, _name, _body, lineno = self.sections[self.pos]
            raise ParseError(f"line {lineno}: unexpected extra section [{_tag} {_name}]")


def _parse_meta(body, lineno, required, optional=()):
    seen = {}
    for ln, line in body:
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise ParseError(f"line {ln}: meta lines are 'key value', got {line!r}")
        key, value = fields
        if key in seen:
            raise ParseError(f"line {ln}: duplicate meta key {key!r}")
        if key not in required and key not in optional:
            raise ParseError(f"line {ln}: unknown meta key {key!r}")
        seen[key] = (ln, value)
    for key in required:
        if key not in seen:
            raise ParseError(f"meta section at line {lineno} is missing key {key!r}")
    return seen


def _meta_int(seen, key, minimum=1):
    ln, value = seen[key]
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"line {ln}: meta key {key!r} must be an integer, got {value!r}") from None
    if n < minimum:
        raise ParseError(f"line {ln}: meta key {key!r} must be >= {minimum}, got {n}")
    return n


def _read_matrix_section(reader, name, nvars, rows=None, cols=None):
    body, lineno = reader.expect("matrix", name)
    text = "\n".join(line for _ln, line in body)
    try:
        mat = parse_matrix(text)
    except ParseError as exc:
        raise ParseError(f"section [matrix {name}] near line {lineno}: {exc}") from None
    if mat.nvars != nvars:
        raise ParseError(f"section [matrix {name}]: expected nvars {nvars}, got {mat.nvars}")
    if rows is not None and (mat.rows, mat.cols) != (rows, cols):
        raise ParseError(
            f"section [matrix {name}]: expected {rows}x{cols}, got {mat.rows}x{mat.cols}"
        )
    return mat


def _read_poly_section(reader, name, nvars):
    body, lineno = reader.expect("poly", name)
    if len(body) != 1:
        raise ParseError(f"section [poly {name}] near line {lineno} must hold exactly one line")
    ln, line = body[0]
    try:
        return parse_polynomial(line, nvars)
    except ParseError as exc:
        raise ParseError(f"line {ln}: {exc}") from None


def _read_trace_section(reader, name):
    body, _lineno = reader.expect("trace", name)
    pivots = []
    scales = []
    for ln, line in body:
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"line {ln}: trace lines are 'i j num/den', got {line!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {ln}: bad pivot indices in {line!r}") from None
        m = _SCALE_RE.match(fields[2])
        if not m:
            raise ParseError(f"line {ln}: bad scale {fields[2]!r}, expected num/den")
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ParseError(f"line {ln}: zero denominator in scale")
        if not 1 <= i <= j:
            raise ParseError(f"line {ln}: pivot pair ({i},{j}) must satisfy 1 <= i <= j")
        if num <= 0:
            raise ParseError(f"line {ln}: pivot scale must be positive")
        pivots.append((i, j))
        scales.append(Fraction(num, den))
    return PivotTrace(tuple(pivots), tuple(scales))


def _read_indexset_section(reader, name):
    body, lineno = reader.expect("indexset", name)
    if len(body) != 1:
        raise ParseError(f"section [indexset {name}] near line {lineno} must hold exactly one line")
    ln, line = body[0]
    if line == "-":
        return ()
    try:
        idx = tuple(int(f) for f in line.split())
    except ValueError:
        raise ParseError(f"line {ln}: bad index set {line!r}") from None
    if any(k < 1 for k in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ParseError(f"line {ln}: index set must be ascending positive integers")
    return idx


def parse_certificate(text):
    """Parse a certificate file; returns (kind, payload).

    Payload by kind: diag -> DiagCertificate, bundle -> DiagBundle,
    equiv -> EquivCertificatePackage, sos -> SosMatrixCertificate,
    membership -> MembershipCertificatePackage.
    """
    sections = _split_sections(text)
    if not sections:
        raise ParseError("empty certificate file")
    reader = _SectionReader(sections)
    body, lineno = reader.expect("meta", "")
    kind_meta = _parse_meta(
        body,
        lineno,
        required=("kind", "dim", "nvars"),
        optional=("branches", "s1_squares", "s2_squares", "factors", "generators", "terms"),
    )
    _ln, kind = kind_meta["kind"]
    if kind not in CERT_KINDS:
        raise ParseError(f"line {_ln}: unknown certificate kind {kind!r}")
    dim = _meta_int(kind_meta, "dim")
    nvars = _meta_int(kind_meta, "nvars")

    def need(key):
        if key not in kind_meta:
            raise ParseError(f"meta section is missing key {key!r} for kind {kind!r}")
        return _meta_int(kind_meta, key)

    if kind == "diag":
        x_plus = _read_matrix_section(reader, "X_plus", nvars, dim, dim)
        x_minus = _read_matrix_section(reader, "X_minus", nvars, dim, dim)
        d = _read_matrix_section(reader, "D", nvars, dim, dim)
        w = _read_poly_section(reader, "w", nvars)
        reader.done()
        return kind, DiagCertificate(dim, x_plus, x_minus, d, w)

    if kind == "bundle":
        count = need("branches")
        branches = []
        for k in range(1, count + 1):
            d = _read_matrix_section(reader, f"D_{k}", nvars, dim, dim)
            x_plus = _read_matrix_section(reader, f"X_plus_{k}", nvars, dim, dim)
            x_minus = _read_matrix_section(reader, f"X_minus_{k}", nvars, dim, dim)
            w = _read_poly_section(reader, f"w_{k}", nvars)
            trace = _read_trace_section(reader, str(k))
            branches.append((DiagCertificate(dim, x_plus, x_minus, d, w), trace))
        reader.done()
        return kind, DiagBundle(dim, tuple(branches))

    if kind == "equiv":
        n1 = need("s1_squares")
        n2 = need("s2_squares")
        subject_b = _read_matrix_section(reader, "subject_b", nvars, dim, dim)
        s1 = _read_poly_section(reader, "s1", nvars)
        s1_squares = tuple(
            _read_poly_section(reader, f"s1_sq_{k}", nvars) for k in range(1, n1 + 1)
        )
        s2 = _read_poly_section(reader, "s2", nvars)
        s2_squares = tuple(
            _read_poly_section(reader, f"s2_sq_{k}", nvars) for k in range(1, n2 + 1)
        )
        z = _read_poly_section(reader, "z", nvars)
        x_plus = _read_matrix_section(reader, "x_plus", nvars, dim, dim)
        x_minus = _read_matrix_section(reader, "x_minus", nvars, dim, dim)
        reader.done()
        wit = EquivWitness(s1, s1_squares, s2, s2_squares, z, x_plus, x_minus)
        return kind, EquivCertificatePackage(wit, subject_b)

    if kind == "sos":
        count = need("factors")
        c = _read_poly_section(reader, "c", nvars)
        factors = []
        for k in range(1, count + 1):
            q = _read_matrix_section(reader, f"Q_{k}", nvars)
            if q.cols != dim:
                raise ParseError(f"section [matrix Q_{k}]: expected {dim} columns, got {q.cols}")
            factors.append(q)
        reader.done()
        return kind, SosMatrixCertificate(c, tuple(factors))

    count = need("generators")
    terms = need("terms")
    gens = []
    gdim = None
    for k in range(1, count + 1):
        g = _read_matrix_section(reader, f"generator_{k}", nvars)
        if g.rows != g.cols:
            raise ParseError(f"section [matrix generator_{k}]: generators must be square")
        if gdim is None:
            gdim = g.rows
        elif g.rows != gdim:
            raise ParseError(f"section [matrix generator_{k}]: generators must share dimension")
        gens.append(g)
    index_sets = []
    coefficients = []
    for j in range(1, terms + 1):
        idx = _read_indexset_section(reader, str(j))
        if any(k > count for k in idx):
            raise ParseError(f"section [indexset {j}]: index exceeds generator count {count}")
        ys = []
        l = 1
        while (
            reader.pos < len(reader.sections)
            and reader.sections[reader.pos][0] == "matrix"
            and reader.sections[reader.pos][1] == f"coeff_{j}_{l}"
        ):
            ys.append(_read_matrix_section(reader, f"coeff_{j}_{l}", nvars, gdim, dim))
            l += 1
        if not ys:
            raise ParseError(f"term {j} has no coefficient matrices")
        index_sets.append(idx)
        coefficients.append(tuple(ys))
    reader.done()
    cert = ModuleMembershipCertificate(tuple(index_sets), tuple(coefficients))
    return kind, MembershipCertificatePackage(cert, tuple(gens))
