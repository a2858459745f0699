"""Seeded inputs and job mixes for the three benchmark workloads.

A job is one ``polydiag`` command line plus what it must produce.  Matrix
inputs are generated here from the seed alone, in this module's own
polynomial representation (a dict from exponent tuple to int), and written
as matrix files, so no result of the program decides what it is fed.  The
certificates verified by ``audit`` and the bundles compared by ``oracle``
are the exception by design: the library's producers make them during
set-up, from the seeded matrices.

Every matrix entry has a fixed number of terms with nonzero coefficients, so
jobs of one class cost about the same on every seed; that keeps the pass
time, and so the throughput, steady from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
COEFFS = (-3, -2, -1, 1, 2, 3)

# Inputs with this many jobs or more per pass put at least ten latency
# samples beyond the 90th percentile of a single pass.
MIN_JOBS = 100

# produce: (mode, n, nvars, degree, terms per entry, jobs per pass).  The
# counts place the median inside the 3x3 one-variable standard forms and the
# 90th percentile inside the 4x4 one-variable standard forms, so neither
# falls on a boundary between classes whose share would vary.  The 3x3
# two-variable bundle (up to 18 s a job), the dense 4x4 two-variable standard
# form (about 3 s) and 4x4 bundles (180 branches) are left out: one of them
# would outweigh the rest of a pass.
PRODUCE_CLASSES = (
    ("standard", 2, 1, 2, 2, 10),
    ("standard", 2, 2, 2, 2, 10),
    ("single", 2, 1, 2, 2, 8),
    ("single", 2, 2, 2, 2, 7),
    ("bundle", 2, 1, 2, 2, 10),
    ("standard", 3, 1, 2, 2, 16),
    ("bundle", 2, 2, 2, 2, 8),
    ("single", 3, 1, 2, 2, 8),
    ("standard", 3, 2, 2, 2, 6),
    ("standard", 4, 1, 2, 2, 16),
    ("single", 4, 1, 2, 2, 3),
    ("single", 3, 2, 2, 2, 1),
    ("bundle", 3, 1, 1, 1, 2),
)

# audit: (kind, producer, n, nvars, degree, terms per entry, certificates).
# No 3x3 bundle: two of them took a third of a pass, so their size from seed
# to seed swung the throughput.
AUDIT_DIAG_CLASSES = (
    ("diag", "single", 2, 1, 2, 2, 6),
    ("diag", "single", 3, 1, 2, 2, 6),
    ("diag", "single", 2, 2, 2, 2, 6),
    ("diag", "standard", 3, 1, 2, 2, 6),
    ("bundle", "bundle", 2, 1, 2, 2, 8),
    ("bundle", "bundle", 2, 2, 2, 2, 8),
    ("equiv", "single", 2, 1, 2, 2, 7),
    ("equiv", "single", 3, 1, 2, 2, 7),
    ("equiv", "single", 2, 2, 2, 2, 6),
)
AUDIT_SOS = 20
AUDIT_MEMBERSHIP = 20
AUDIT_TAMPERED_PER_KIND = 4

# oracle: Gram matrices G^t*G (n: jobs), random symmetric matrices
# ((n, nvars): jobs), and n = 2 bundles for equiv-check as (nvars, points per
# axis, jobs).  The median falls inside the random 3x3 two-variable jobs and
# the 90th percentile inside the 6x6 Gram jobs, whose cost hardly varies.
# equiv-check costs vary with the share of PSD points, so its grids are kept
# cheaper than a 6x6 Gram job; eighteen bundles keep the certificate bytes
# per pass steady.
ORACLE_GRAM = {3: 5, 4: 5, 5: 5, 6: 14}
ORACLE_RANDOM = {(n, nvars): 11 for n in (2, 3, 4) for nvars in (1, 2)}
ORACLE_EQUIV = ((1, 121, 9), (2, 8, 9))

# psd-grid on the fixtures: (file, grid axes or None for the default grid,
# stdout, exit code).  The Choi-type matrix is PSD at every real point
# (acceptance criterion 5); [[t1, 1], [1, t1]] is PSD exactly for t1 >= 1, as
# the README shows; the rank-3 constant matrix has determinant -4.
FIXTURE_PSD_GRID = (
    ("choi.mat", None, "points=441 psd=441 non_psd=0\n", 0),
    ("a.mat", ((-2, 2, 5),), "(-2); psd=0\n(-1); psd=0\n(0); psd=0\npoints=5 psd=2 non_psd=3\n", 4),
    ("rank3.mat", ((-1, 1, 3),), "(-1); psd=0\n(0); psd=0\n(1); psd=0\npoints=3 psd=0 non_psd=3\n", 4),
)

# per certificate kind, the section whose first entry tampering changes
_CERT_TAMPER_SECTION = {
    "diag": "[poly w]",
    "bundle": "[poly w_1]",
    "equiv": "[poly z]",
    "sos": "[poly c]",
    "membership": "[matrix coeff_1_1]",
}


@dataclass(frozen=True)
class Job:
    """One CLI command and the result it must give.

    ``stdout`` is the exact expected output, ``prefix`` a required start of
    it; a produce job has neither and names the matrix file and mode its
    certificate must verify against, after the timed loop.
    """

    label: str
    argv: tuple
    exit: int
    stdout: str | None = None
    prefix: str | None = None
    subject: str | None = None
    mode: str | None = None
    cert_bytes_in: int = 0


# -- polynomials as {exponent tuple: int} --------------------------------


def monomials(nvars, degree):
    """Exponent tuples of total degree at most ``degree``, sorted."""
    return sorted(
        e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree
    )


def rand_poly(rng, nvars, degree, terms):
    return {e: rng.choice(COEFFS) for e in rng.sample(monomials(nvars, degree), terms)}


def rand_symmetric(rng, n, nvars, degree, terms):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rand_poly(rng, nvars, degree, terms)
    return rows


def rand_matrix(rng, rows, cols, nvars, degree, max_terms):
    return [
        [rand_poly(rng, nvars, degree, rng.randint(1, max_terms)) for _ in range(cols)]
        for _ in range(rows)
    ]


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def gram(g):
    """G^t*G for a k x n matrix G given as rows."""
    n = len(g[0])
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for row in g:
                out[i][j] = poly_add(out[i][j], poly_mul(row[i], row[j]))
    return out


def poly_text(p):
    terms = sorted(((e, c) for e, c in p.items() if c), reverse=True)
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        mono = "*".join(f"t{k + 1}^{x}" if x > 1 else f"t{k + 1}" for k, x in enumerate(e) if x)
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else (mono or str(mag))
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def matrix_text(rows, nvars):
    lines = [f"{len(rows)} {len(rows[0])} {nvars}"]
    lines.extend(poly_text(p) for row in rows for p in row)
    return "\n".join(lines) + "\n"


def evaluate(p, point):
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= x**k
        total += term
    return total


# -- exact rational checks, independent of the library's algorithms ------


def det(rows):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return out


def is_psd(rows):
    """PSD test by pivoted LDL^t, not by principal minors as the library does."""
    work = [list(r) for r in rows]
    idx = list(range(len(work)))
    while idx:
        p = max(idx, key=lambda i: work[i][i])
        d = work[p][p]
        if d < 0:
            return False
        if d == 0:
            return all(work[i][j] == 0 for i in idx for j in idx)
        idx.remove(p)
        for i in idx:
            for j in idx:
                work[i][j] -= work[i][p] * work[p][j] / d
    return True


_GENERIC_POINT = (Fraction(3, 7), Fraction(-5, 11))


def is_standard_form(rows, nvars):
    """True when every leading principal minor is nonzero at a fixed point.

    A nonzero value proves the minor is not the zero polynomial, so the
    matrix has full generic rank and is in standard form; a zero value only
    rejects the matrix.
    """
    point = _GENERIC_POINT[:nvars]
    vals = [[evaluate(p, point) for p in row] for row in rows]
    return all(det([r[:k] for r in vals[:k]]) != 0 for k in range(1, len(rows) + 1))


def grid(axes):
    """Grid points in tensor order for (low, high, count) axes, as the CLI builds them."""
    values = []
    for low, high, count in axes:
        low, high = Fraction(low), Fraction(high)
        step = (high - low) / (count - 1) if count > 1 else Fraction(0)
        values.append([low + k * step for k in range(count)])
    return list(itertools.product(*values))


def psd_grid_expectation(rows, axes):
    """Expected (stdout, exit code) of ``psd-grid`` on the given grid."""
    lines = []
    psd = 0
    points = grid(axes)
    for s in points:
        if is_psd([[evaluate(p, s) for p in row] for row in rows]):
            psd += 1
        else:
            lines.append("(" + ",".join(str(c) for c in s) + "); psd=0")
    lines.append(f"points={len(points)} psd={psd} non_psd={len(points) - psd}")
    return "\n".join(lines) + "\n", 0 if psd == len(points) else 4


# -- job mixes -----------------------------------------------------------


class _Files:
    """Writes job inputs into one directory and digests them in order."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.count = 0

    def write(self, stem, text):
        path = os.path.join(self.workdir, f"{self.count:03d}-{stem}")
        self.count += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.digest.update(os.path.basename(path).encode() + b"\0" + text.encode() + b"\0")
        return path

    def fixture(self, name):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
            return self.write(name, handle.read())


def _nonzero_symmetric(rng, n, nvars, degree, terms, standard):
    while True:
        rows = rand_symmetric(rng, n, nvars, degree, terms)
        if not standard or is_standard_form(rows, nvars):
            return rows


def build_produce(rng, files, lib):
    jobs = []
    for mode, n, nvars, degree, terms, count in PRODUCE_CLASSES:
        for _ in range(count):
            rows = _nonzero_symmetric(rng, n, nvars, degree, terms, mode == "standard")
            path = files.write("a.mat", matrix_text(rows, nvars))
            jobs.append(_produce_job(f"{mode} n{n} d{nvars}", path, mode))
    a_mat = files.fixture("a.mat")
    rank3 = files.fixture("rank3.mat")
    for mode in ("standard", "single", "bundle"):
        jobs.append(_produce_job(f"{mode} fixture", a_mat, mode))
    for mode in ("single", "bundle"):
        jobs.append(_produce_job(f"{mode} fixture", rank3, mode))
    return jobs


def _produce_job(label, path, mode):
    argv = ("diagonalize", "--mode", mode, path)
    return Job(label, argv, 0, subject=path, mode=mode)


def tamper(text, kind):
    """Add 1 to the first entry after the kind's tamper section header.

    The entries chosen make the change visible to every honest verifier:
    w, z and a bundle branch's w enter X_plus*X_minus = w*I linearly; c
    enters c^2*A with integer coefficients, so (c + 1)^2 != c^2; and y
    entering y^t*G*y changes by G_11*(2*y + 1), nonzero for integer y.
    """
    lines = text.split("\n")
    at = lines.index(_CERT_TAMPER_SECTION[kind]) + 1
    if kind == "membership":
        at += 1  # skip the matrix header line
    lines[at] = f"{lines[at]} + 1"
    return "\n".join(lines)


def build_audit(rng, files, lib):
    P = lib.polymat
    C = lib.certificates
    D = lib.diagonal
    producers = {
        "single": D.single_path_diagonalize,
        "standard": D.standard_form_diagonalize,
        "bundle": D.diagonalization_bundle,
    }
    certs = []  # (kind, label, matrix path, certificate text)
    for kind, producer, n, nvars, degree, terms, count in AUDIT_DIAG_CLASSES:
        for _ in range(count):
            rows = _nonzero_symmetric(rng, n, nvars, degree, terms, producer == "standard")
            text = matrix_text(rows, nvars)
            path = files.write("a.mat", text)
            result = producers[producer](P.parse_matrix(text))
            if kind == "bundle":
                cert = C.format_bundle_certificate(result)
            elif kind == "diag":
                cert = C.format_diag_certificate(result)
            else:
                pkg = C.EquivCertificatePackage(C.witness_from_diag_certificate(result), result.D)
                cert = C.format_equiv_certificate(pkg)
            certs.append((kind, f"{kind} n{n} d{nvars}", path, cert))
    for _ in range(AUDIT_SOS):
        certs.append(_sos_certificate(rng, files, lib))
    for _ in range(AUDIT_MEMBERSHIP):
        certs.append(_membership_certificate(rng, files, lib))
    a_path = files.fixture("a.mat")
    with open(a_path, encoding="utf-8") as handle:
        a = P.parse_matrix(handle.read())
    certs.append(("diag", "diag fixture", a_path, C.format_diag_certificate(D.single_path_diagonalize(a))))
    certs.append(("bundle", "bundle fixture", a_path, C.format_bundle_certificate(D.diagonalization_bundle(a))))

    jobs = []
    for kind, label, path, cert in certs:
        cert_path = files.write(f"{kind}.cert", cert)
        ok = f"ok: {kind} certificate verifies\n"
        jobs.append(Job(label, ("verify", path, cert_path), 0, stdout=ok, cert_bytes_in=len(cert.encode())))
    for kind in _CERT_TAMPER_SECTION:
        chosen = [c for c in certs if c[0] == kind][:AUDIT_TAMPERED_PER_KIND]
        for _kind, label, path, cert in chosen:
            bad = tamper(cert, kind)
            cert_path = files.write(f"{kind}.tampered.cert", bad)
            jobs.append(
                Job(f"{label} tampered", ("verify", path, cert_path), 3,
                    prefix="identity failed: ", cert_bytes_in=len(bad.encode()))
            )
    return jobs


def _sos_certificate(rng, files, lib):
    P, C, A = lib.polymat, lib.certificates, lib.arith
    n = rng.randint(2, 3)
    nvars = rng.randint(1, 2)
    factors = [rand_matrix(rng, rng.randint(1, 3), n, nvars, 1, 2) for _ in range(rng.randint(1, 2))]
    subject = gram(factors[0])
    for g in factors[1:]:
        subject = [[poly_add(p, q) for p, q in zip(r1, r2)] for r1, r2 in zip(subject, gram(g))]
    path = files.write("a.mat", matrix_text(subject, nvars))
    c = A.parse_polynomial(poly_text(rand_poly(rng, nvars, 1, rng.randint(1, 2))), nvars)
    qs = tuple(P.parse_matrix(matrix_text(g, nvars)) * c for g in factors)
    cert = C.format_sos_certificate(C.SosMatrixCertificate(c, qs))
    return "sos", f"sos n{n} d{nvars}", path, cert


def _membership_certificate(rng, files, lib):
    P, C = lib.polymat, lib.certificates
    nvars = rng.randint(1, 2)
    gdim = rng.randint(1, 2)
    out_dim = rng.randint(1, 2)
    gens = [
        P.parse_matrix(matrix_text(
            [[rand_poly(rng, nvars, 1, rng.randint(1, 2)) if i == j else {} for j in range(gdim)]
             for i in range(gdim)], nvars))
        for _ in range(rng.randint(1, 3))
    ]
    index_sets, coeffs = [], []
    element = P.PolyMatrix.zeros(out_dim, out_dim, nvars)
    for _ in range(rng.randint(1, 2)):
        idx = tuple(k + 1 for k in range(len(gens)) if rng.random() < 0.5)
        prod = P.PolyMatrix.identity(gdim, nvars)
        for k in idx:
            prod = prod @ gens[k - 1]
        ys = tuple(
            P.parse_matrix(matrix_text(rand_matrix(rng, gdim, out_dim, nvars, 1, 2), nvars))
            for _ in range(rng.randint(1, 2))
        )
        for y in ys:
            element = element + y.transpose() @ prod @ y
        index_sets.append(idx)
        coeffs.append(ys)
    path = files.write("a.mat", P.format_matrix(element))
    pkg = C.MembershipCertificatePackage(
        C.ModuleMembershipCertificate(tuple(index_sets), tuple(coeffs)), tuple(gens)
    )
    return "membership", f"membership n{out_dim} d{nvars}", path, C.format_membership_certificate(pkg)


def _grid_flags(axes):
    flags = []
    for low, high, count in axes:
        flags += [f"--grid-low={low}", f"--grid-high={high}", f"--grid-count={count}"]
    return tuple(flags)


def _psd_job(files, label, rows, nvars, axes):
    stdout, code = psd_grid_expectation(rows, axes)
    path = files.write("a.mat", matrix_text(rows, nvars))
    return Job(label, ("psd-grid", path) + _grid_flags(axes), code, stdout=stdout)


def build_oracle(rng, files, lib):
    jobs = []
    for n, count in ORACLE_GRAM.items():
        for _ in range(count):
            g = rand_matrix(rng, rng.randint(2, n), n, 1, 1, 2)
            job = _psd_job(files, f"psd-grid gram n{n}", gram(g), 1, ((-6, 6, 13),))
            if job.exit != 0:
                raise RuntimeError("a Gram matrix failed the independent PSD check")
            jobs.append(job)
    for (n, nvars), count in ORACLE_RANDOM.items():
        axes = ((-3, 3, 11),) if nvars == 1 else ((-2, 2, 5),) * 2
        for _ in range(count):
            rows = rand_symmetric(rng, n, nvars, 2, 2)
            jobs.append(_psd_job(files, f"psd-grid random n{n} d{nvars}", rows, nvars, axes))
    for name, axes, stdout, code in FIXTURE_PSD_GRID:
        flags = _grid_flags(axes) if axes else ()
        argv = ("psd-grid", files.fixture(name)) + flags
        jobs.append(Job(f"psd-grid fixture {name}", argv, code, stdout=stdout))
    for nvars, count, njobs in ORACLE_EQUIV:
        for _ in range(njobs):
            path = files.write("a.mat", matrix_text(rand_symmetric(rng, 2, nvars, 2, 2), nvars))
            jobs.append(_equiv_job(files, lib, f"equiv-check n2 d{nvars}", path, ((-10, 10, count),) * nvars))
    # the README's example, and the Choi-type matrix
    jobs.append(_equiv_job(files, lib, "equiv-check fixture a.mat", files.fixture("a.mat"), ((-10, 10, 5),)))
    jobs.append(_equiv_job(files, lib, "equiv-check fixture choi.mat", files.fixture("choi.mat"), ((-10, 10, 11),) * 2))
    return jobs


def _equiv_job(files, lib, label, path, axes):
    with open(path, encoding="utf-8") as handle:
        bundle = lib.diagonal.diagonalization_bundle(lib.polymat.parse_matrix(handle.read()))
    cert = lib.certificates.format_bundle_certificate(bundle)
    cert_path = files.write("bundle.cert", cert)
    points = 1
    for _low, _high, count in axes:
        points *= count
    return Job(
        label,
        ("equiv-check", path, cert_path) + _grid_flags(axes),
        0,
        stdout=f"points={points} agree={points} disagree=0\n",
        cert_bytes_in=len(cert.encode()),
    )


MIXES = {"produce": build_produce, "audit": build_audit, "oracle": build_oracle}


def build(workload, seed, workdir, lib):
    """Write the workload's inputs into ``workdir``; returns (jobs, input digest).

    The job order is shuffled by the seed.  The digest covers every file
    written and every command line in order, so equal digests mean the same
    jobs on byte-identical inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(workdir)
    jobs = MIXES[workload](rng, files, lib)
    rng.shuffle(jobs)
    if len(jobs) < MIN_JOBS:
        raise ValueError(f"{workload} mix has {len(jobs)} jobs, fewer than {MIN_JOBS}")
    for job in jobs:
        argv = [os.path.basename(a) if a.startswith(workdir) else a for a in job.argv]
        files.digest.update(repr((argv, job.exit, job.stdout, job.prefix)).encode())
    return jobs, files.digest.hexdigest()[:16]
