"""Tests for the three congruence diagonalization routes."""

import gc
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydiag import certificates, diagonal, polymat
from polydiag.arith import Polynomial, parse_polynomial
from polydiag.certificates import (
    diag_certificate_failures,
    format_bundle_certificate,
    format_diag_certificate,
    parse_certificate,
)
from polydiag.diagonal import (
    _branches,
    _standard_form,
    block_step,
    diagonalization_bundle,
    pivot_congruence,
    single_path_diagonalize,
    standard_form_check,
    standard_form_diagonalize,
)
from polydiag.errors import (
    BundleTooLarge,
    InternalIdentityFailure,
    NotStandardForm,
    NotSymmetric,
    ZeroMatrix,
)
from polydiag.polymat import PolyMatrix, parse_matrix

from helpers import (
    const_matrix,
    count_calls,
    det_cofactor,
    paper_branches,
    rand_matrix,
    rand_symmetric,
    rand_symmetric_total_deg,
)

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def P(text, nvars=1):
    return parse_polynomial(text, nvars)


def M(rows, nvars=1):
    return PolyMatrix.from_rows([[P(s, nvars) for s in row] for row in rows])


VANISHING_MINORS = const_matrix([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])


def assert_certificate_holds(a, cert):
    """The three identities every diagonalization certificate claims."""
    n = a.rows
    eye = PolyMatrix.identity(n, a.nvars)
    assert cert.X_plus @ cert.X_minus == cert.w * eye
    assert cert.X_minus @ cert.X_plus == cert.w * eye
    assert cert.D.is_diagonal()
    assert cert.D == cert.X_minus @ a @ cert.X_minus.transpose()
    assert (cert.w * cert.w) * a == cert.X_plus @ cert.D @ cert.X_plus.transpose()


def rand_standard_form(rng, n, nvars):
    # generic symmetric matrices are standard form; reject the rare others
    while True:
        a = rand_symmetric(rng, n, nvars)
        try:
            standard_form_check(a)
        except (ZeroMatrix, NotStandardForm):
            continue
        return a


# -- standard_form_check ----------------------------------------------------


def test_standard_form_check_examples():
    data = standard_form_check(M([["1", "t1"], ["t1", "t1^2 + 1"]]))
    assert data.rank == 2
    assert data.minors == (P("1"), P("1"))

    for n in (2, 3, 4):
        data = standard_form_check(PolyMatrix.identity(n, 1))
        assert data.rank == n
        assert data.minors == (Polynomial.one(1),) * n


def test_standard_form_check_vanishing_minor_fixture():
    with pytest.raises(NotStandardForm) as exc:
        standard_form_check(VANISHING_MINORS)
    assert exc.value.p == 2
    assert "M_2" in str(exc.value)


def test_standard_form_check_rejections():
    with pytest.raises(NotSymmetric):
        standard_form_check(M([["1", "t1"], ["0", "1"]]))
    with pytest.raises(ZeroMatrix):
        standard_form_check(PolyMatrix.zeros(2, 2, 1))
    with pytest.raises(ValueError):
        standard_form_check(M([["t1"]]))


def _elimination_subject(seed, n, nvars, shape):
    rng = random.Random(seed)
    if shape == "gram":  # G^t*G of rank at most the row count of G
        g = rand_matrix(rng, rng.randint(1, n - 1), n, nvars, max_deg=1)
        return g.transpose() @ g
    a = rand_symmetric(rng, n, nvars)
    rows = [list(a.row(i)) for i in range(n)]
    if shape == "zero corner":  # M_1 = 0, not in standard form unless zero
        rows[0][0] = Polynomial.zero(nvars)
    return PolyMatrix.from_rows(rows)


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    nvars=st.integers(1, 2),
    shape=st.sampled_from(("random", "gram", "zero corner")),
)
def test_one_elimination_matches_reference_minors(seed, n, nvars, shape):
    a = _elimination_subject(seed, n, nvars, shape)
    rank = a._eliminate()[0]
    assert rank == a.generic_rank()
    # a symmetric matrix has rank r iff some r x r principal minor is nonzero
    # and none larger is
    assert rank == max(
        (
            k
            for k in range(1, n + 1)
            for idx in itertools.combinations(range(1, n + 1), k)
            if not det_cofactor(a.submatrix(idx, idx)).is_zero()
        ),
        default=0,
    )
    leading = [det_cofactor(a.submatrix(range(1, p + 1), range(1, p + 1))) for p in range(1, n + 1)]
    vanishing = next((p for p in range(1, rank + 1) if leading[p - 1].is_zero()), None)
    if rank == 0:
        with pytest.raises(ZeroMatrix):
            standard_form_check(a)
    elif vanishing is not None:
        with pytest.raises(NotStandardForm) as info:
            standard_form_check(a)
        assert info.value.p == vanishing
    else:
        data, (ring, work, *_) = standard_form_check(a), _standard_form(a)
        assert data.minors == tuple(leading[:rank])
        # column j's entries are (j+1)-minors: over L^(j+1) on the image ring
        for j in range(rank):
            assert ring.poly(work[j][j], j + 1) == a.leading_principal_minor(j + 1)
            for i in range(j + 1, n):
                lead = tuple(range(1, j + 1))
                assert ring.poly(work[i][j], j + 1) == a.minor(lead + (i + 1,), lead + (j + 1,))


# -- standard_form_diagonalize ----------------------------------------------


def test_standard_identity_matrix():
    cert = standard_form_diagonalize(PolyMatrix.identity(2, 1))
    eye = PolyMatrix.identity(2, 1)
    assert cert.X_plus == eye and cert.X_minus == eye
    assert cert.D == eye
    assert cert.w == Polynomial.one(1)


def test_standard_unit_minor_example():
    a = M([["1", "t1"], ["t1", "t1^2 + 1"]])
    cert = standard_form_diagonalize(a)
    assert cert.X_minus == M([["1", "0"], ["-t1", "1"]])
    assert cert.X_plus == M([["1", "0"], ["t1", "1"]])
    assert cert.D == PolyMatrix.identity(2, 1)
    assert cert.w == Polynomial.one(1)
    assert_certificate_holds(a, cert)


def test_standard_scaled_example():
    a = M([["t1", "1"], ["1", "t1"]])
    cert = standard_form_diagonalize(a)
    # m = M_1 = t; the certificate scales everything by it
    assert cert.X_minus == M([["t1", "0"], ["-1", "t1"]])
    assert cert.X_plus == M([["t1", "0"], ["1", "t1"]])
    assert cert.D == PolyMatrix.diagonal([P("t1^3"), P("t1^3 - t1")])
    assert cert.w == P("t1^2")
    assert_certificate_holds(a, cert)


def test_standard_rank_deficient():
    a = const_matrix([[1, 1], [1, 1]])
    cert = standard_form_diagonalize(a)
    assert cert.D == const_matrix([[1, 0], [0, 0]])
    assert cert.w == Polynomial.one(1)
    assert_certificate_holds(a, cert)


def test_standard_triangular_shape():
    rng = random.Random(301)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = rand_standard_form(rng, n, rng.randint(1, 2))
        cert = standard_form_diagonalize(a)
        m = cert.X_plus[0, 0]
        for i in range(n):
            assert cert.X_plus[i, i] == m
            assert cert.X_minus[i, i] == m
            for j in range(i + 1, n):
                assert cert.X_plus[i, j].is_zero()
                assert cert.X_minus[i, j].is_zero()
        assert cert.w == m * m
        assert_certificate_holds(a, cert)


def test_standard_rejects_vanishing_minor_fixture():
    with pytest.raises(NotStandardForm):
        standard_form_diagonalize(VANISHING_MINORS)


# -- block_step ---------------------------------------------------------------


def test_block_step_unit_corner():
    a = M([["1", "0", "0"], ["0", "t1", "1"], ["0", "1", "t1^2"]])
    at, xp, xm, alpha = block_step(a)
    assert alpha == Polynomial.one(1)
    assert at == a
    assert xp == PolyMatrix.identity(3, 1)
    assert xm == PolyMatrix.identity(3, 1)


def test_block_step_example():
    a = M([["t1", "1"], ["1", "t1"]])
    at, xp, xm, alpha = block_step(a)
    assert alpha == P("t1")
    assert at == PolyMatrix.diagonal([P("t1^3"), P("t1^3 - t1")])
    assert xp == M([["t1", "0"], ["1", "t1"]])
    assert xm == M([["t1", "0"], ["-1", "t1"]])
    a4 = alpha ** 4
    assert a4 * a == xp @ at @ xp.transpose()


def test_block_step_zero_corner_annihilates():
    a = M([["0", "t1"], ["t1", "0"]])
    at, xp, xm, alpha = block_step(a)
    assert alpha.is_zero()
    assert at.is_zero()
    assert xm @ a @ xm.transpose() == at


def test_block_step_random_identities():
    rng = random.Random(302)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = rand_symmetric(rng, n, rng.randint(1, 2))
        at, xp, xm, alpha = block_step(a)
        a2 = alpha * alpha
        eye = PolyMatrix.identity(n, a.nvars)
        assert xp @ xm == a2 * eye
        assert xm @ xp == a2 * eye
        assert at == xm @ a @ xm.transpose()
        assert (a2 * a2) * a == xp @ at @ xp.transpose()


def test_block_step_rejections():
    with pytest.raises(NotSymmetric):
        block_step(M([["1", "t1"], ["0", "1"]]))
    with pytest.raises(ValueError):
        block_step(M([["t1"]]))


BLOCK_STEP_IDENTITIES = (
    "X_plus*X_minus = alpha^2*I",
    "Atilde = X_minus*A*X_minus^t",
    "alpha^4*A = X_plus*Atilde*X_plus^t",
)


@pytest.mark.parametrize("broken,reported", [
    ({0}, (0,)),  # the third identity is multiplied out, and holds
    ({1}, (1,)),
    ({0, 2}, (0, 2)),
    ({0, 1, 2}, (0, 1, 2)),
])
def test_block_step_names_the_identities_that_broke(monkeypatch, broken, reported):
    """identity_holds decides block_step's identities in the docstring's
    order, the third only when one of the first two fails; those forged
    false are named, in that order, by one InternalIdentityFailure."""
    calls = []
    real = diagonal.identity_holds

    def forged(lhs, rhs, images=None):
        calls.append(len(calls))
        return real(lhs, rhs, images) and calls[-1] not in broken

    monkeypatch.setattr(diagonal, "identity_holds", forged)
    with pytest.raises(InternalIdentityFailure) as info:
        block_step(M([["t1", "1"], ["1", "t1^2"]]))
    names = "; ".join(BLOCK_STEP_IDENTITIES[k] for k in reported)
    assert str(info.value) == f"block step identities broke: {names}"
    assert calls == [0, 1, 2]


ZERO_1X1 = PolyMatrix.zeros(1, 1, 1)
ROW = PolyMatrix.zeros(1, 2, 1)


# (producer, subject, exception type, its text): the producers test their
# preconditions in one order, symmetric, then the standard route's
# dimension, then nonzero, then the bundle's cap
PRECONDITIONS = [
    (standard_form_check, ROW, NotSymmetric, "matrix must be symmetric"),
    (standard_form_diagonalize, ROW, NotSymmetric, "matrix must be symmetric"),
    (single_path_diagonalize, ROW, NotSymmetric, "matrix must be symmetric"),
    (lambda a: diagonalization_bundle(a, 0), ROW, NotSymmetric, "matrix must be symmetric"),
    (standard_form_check, ZERO_1X1, ValueError, "standard form needs dimension at least 2"),
    (standard_form_diagonalize, ZERO_1X1, ValueError, "standard form needs dimension at least 2"),
    (standard_form_diagonalize, PolyMatrix.zeros(2, 2, 1), ZeroMatrix, "matrix is identically zero"),
    (single_path_diagonalize, ZERO_1X1, ZeroMatrix, "matrix is identically zero"),
    (lambda a: diagonalization_bundle(a, 0), ZERO_1X1, ZeroMatrix, "matrix is identically zero"),
    (lambda a: diagonalization_bundle(a, 0), M([["t1"]]), ValueError, "branch cap must be positive"),
]


@pytest.mark.parametrize("produce,a,error,message", PRECONDITIONS)
def test_producers_refuse_in_one_order(produce, a, error, message):
    with pytest.raises(error) as info:
        produce(a)
    assert (type(info.value), str(info.value)) == (error, message)


# -- pivot_congruence ---------------------------------------------------------


def test_pivot_corner_is_noop():
    a = M([["t1", "1"], ["1", "t1"]])
    a_ij, v, scale = pivot_congruence(a, 1, 1)
    assert a_ij == a
    assert v == PolyMatrix.identity(2, 1)
    assert scale == 1


def test_pivot_diagonal_swap():
    a = M([["t1", "1"], ["1", "t1^2"]])
    a_ij, v, scale = pivot_congruence(a, 2, 2)
    assert a_ij[0, 0] == a[1, 1]
    assert scale == 1
    assert a_ij == v @ a @ v.transpose()


def test_pivot_off_diagonal_doubles_average():
    a = M([["0", "t1"], ["t1", "0"]])
    a_ij, v, scale = pivot_congruence(a, 1, 2)
    assert a_ij[0, 0] == P("2*t1")
    assert scale == 2
    assert a_ij == v @ a @ v.transpose()


def test_pivot_congruence_random():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = rand_symmetric(rng, n, 2)
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        a_ij, v, scale = pivot_congruence(a, i, j)
        assert a_ij == v @ a @ v.transpose()
        avg = a[i - 1, j - 1] + Fraction(1, 2) * (a[i - 1, i - 1] + a[j - 1, j - 1])
        if i == j:
            avg = a[i - 1, i - 1]
        assert a_ij[0, 0] == scale * avg
        assert v.determinant().degree() == 0  # det is a nonzero constant


def test_pivot_index_validation():
    a = PolyMatrix.identity(3, 1)
    with pytest.raises(ValueError):
        pivot_congruence(a, 2, 1)
    with pytest.raises(ValueError):
        pivot_congruence(a, 0, 1)
    with pytest.raises(ValueError):
        pivot_congruence(a, 1, 4)


# -- single_path_diagonalize --------------------------------------------------


def test_single_path_identity():
    cert = single_path_diagonalize(PolyMatrix.identity(3, 1))
    assert cert.D == PolyMatrix.identity(3, 1)
    assert cert.w == Polynomial.one(1)


def test_single_path_example():
    a = M([["t1", "1"], ["1", "t1"]])
    cert = single_path_diagonalize(a)
    # D_p = M_(p-1) * M_p with M_1 = t1, M_2 = t1^2 - 1; w = M_1
    assert cert.D == PolyMatrix.diagonal([P("t1"), P("t1^3 - t1")])
    assert cert.w == P("t1")
    assert_certificate_holds(a, cert)


def test_single_path_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        single_path_diagonalize(PolyMatrix.zeros(2, 2, 1))


def test_single_path_zero_diagonal():
    # every diagonal entry vanishes; the off-diagonal averaged pivot carries
    a = M([["0", "t1"], ["t1", "0"]])
    cert = single_path_diagonalize(a)
    assert_certificate_holds(a, cert)
    assert not cert.w.is_zero()


def test_single_path_handles_non_standard_form():
    cert = single_path_diagonalize(VANISHING_MINORS)
    assert_certificate_holds(VANISHING_MINORS, cert)


def test_single_path_random_identities():
    # degree triples per recursion level, so n = 4 stays univariate
    rng = random.Random(304)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = 1 if n == 4 else rng.randint(1, 2)
        a = rand_symmetric_total_deg(rng, n, d)
        if a.is_zero():
            continue
        cert = single_path_diagonalize(a)
        assert_certificate_holds(a, cert)


# -- diagonalization_bundle ---------------------------------------------------


def test_bundle_branch_counts():
    assert len(diagonalization_bundle(PolyMatrix.identity(2, 1)).branches) == 3
    a3 = M(
        [["t1", "1", "0"], ["1", "t1", "1"], ["0", "1", "t1"]]
    )
    assert len(diagonalization_bundle(a3).branches) == 18


def test_bundle_identity_subject():
    bundle = diagonalization_bundle(PolyMatrix.identity(2, 1))
    seen = set()
    for cert, trace in bundle.branches:
        assert_certificate_holds(PolyMatrix.identity(2, 1), cert)
        for entry in cert.D.diagonal_entries():
            assert entry.is_constant()
            seen.add(entry.constant_value())
    # pivot (1,2) on I_2 routes through corner value M_1 = 2 with M_2 = 1:
    # entries M_1 = 2 and M_1*M_2 = 2
    assert seen == {Fraction(1), Fraction(2)}


def test_bundle_branches_ordered_by_pivot():
    bundle = diagonalization_bundle(PolyMatrix.identity(2, 1))
    first_pivots = [trace.pivots[0] for _, trace in bundle.branches]
    assert first_pivots == [(1, 1), (1, 2), (2, 2)]
    assert [trace.scales[0] for _, trace in bundle.branches] == [1, 2, 1]


def test_bundle_rank_one_square():
    # v^t v for v = (t, 1); the (1,2) branch pivots on (t+1)^2
    a = M([["t1^2", "t1"], ["t1", "1"]])
    bundle = diagonalization_bundle(a)
    assert len(bundle.branches) == 3
    for cert, _ in bundle.branches:
        assert_certificate_holds(a, cert)
    cert12 = bundle.branches[1][0]
    assert bundle.branches[1][1].pivots == ((1, 2),)
    assert cert12.D[0, 0] == P("t1 + 1") ** 2
    assert cert12.D[1, 1].is_zero()


def test_bundle_compacts_zero_rows():
    a = PolyMatrix.diagonal([P("t1"), Polynomial.zero(1), P("1")])
    bundle = diagonalization_bundle(a)
    cert, trace = bundle.branches[0]
    assert trace.pivots == ((1, 1),)
    # the zero row moves to the end; the 1 x 1 leaf t1 = M_2 divides nothing
    assert cert.D == PolyMatrix.diagonal([P("t1"), P("t1^2"), P("0")])
    assert cert.w == P("t1")
    for cert, _ in bundle.branches:
        assert_certificate_holds(a, cert)


def test_bundle_random_identities():
    rng = random.Random(305)
    for _ in range(20):
        n = rng.randint(2, 3)
        a = rand_symmetric_total_deg(rng, n, rng.randint(1, 2))
        if a.is_zero():
            continue
        bundle = diagonalization_bundle(a)
        for cert, trace in bundle.branches:
            assert_certificate_holds(a, cert)
            assert len(trace.pivots) >= 1


def _replay_w(a, trace=None):
    """w of a pivot-route certificate of a, replayed with fraction-free steps:
    the product of the corner values, one per pivot.  trace is a bundle
    branch's, whose steps compact zero rows away; None replays the single
    path, which takes the first (i, j) whose corner is not identically zero
    and keeps the block whole until it is zero or 1 x 1."""
    m = a
    w = prev = Polynomial.one(a.nvars)
    for step in itertools.count():
        if trace is None:
            if m.rows == 1 or m.is_zero():
                return w
            k = m.rows
            pairs = ((i, j) for i in range(1, k + 1) for j in range(i, k + 1))
            i, j = next(c for c in pairs if not pivot_congruence(m, *c)[0][0, 0].is_zero())
        elif step == len(trace.pivots):
            return w
        else:
            i, j = trace.pivots[step]
        a_ij, _v, scale = pivot_congruence(m, i, j)
        assert trace is None or scale == trace.scales[step]
        alpha = a_ij[0, 0]
        w = w * alpha
        if alpha.is_zero():
            assert step == len(trace.pivots) - 1
            return w
        # Sylvester: (alpha*C - beta^t*beta) / previous corner
        k = m.rows
        m = PolyMatrix.from_rows(
            [
                [
                    (alpha * a_ij[p, q] - a_ij[0, p] * a_ij[0, q]).exact_div(prev)
                    for q in range(1, k)
                ]
                for p in range(1, k)
            ]
        )
        prev = alpha
        if trace is not None:
            if m.is_zero():
                assert step == len(trace.pivots) - 1
                return w
            kept = tuple(
                p + 1 for p in range(m.rows) if any(not m[p, q].is_zero() for q in range(m.cols))
            )
            m = m.submatrix(kept, kept)


def test_bundle_trace_replay():
    """Replaying a single path, or a bundle branch's trace, reproduces its w
    as the product of the corner values, not of their squares."""
    rng = random.Random(306)
    for _ in range(15):
        n = rng.randint(2, 3)
        a = rand_symmetric_total_deg(rng, n, 1)
        if a.is_zero():
            continue
        assert single_path_diagonalize(a).w == _replay_w(a)
        for cert, trace in diagonalization_bundle(a).branches:
            assert cert.w == _replay_w(a, trace)


def test_bundle_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        diagonalization_bundle(PolyMatrix.zeros(3, 3, 2))


def test_bundle_cap():
    a3 = M([["t1", "1", "0"], ["1", "t1", "1"], ["0", "1", "t1"]])
    with pytest.raises(BundleTooLarge):
        diagonalization_bundle(a3, cap_branches=5)
    with pytest.raises(ValueError):
        diagonalization_bundle(a3, cap_branches=0)


# -- against the paper's block-step recursion ---------------------------------


def _trace_subject(seed, n, nvars, shape):
    """A nonzero symmetric n x n subject of the given shape."""
    rng = random.Random(seed)
    while True:
        if shape == "gram":  # G^t*G of rank below n
            g = rand_matrix(rng, rng.randint(1, n - 1), n, nvars, max_deg=1)
            a = g.transpose() @ g
        else:
            a = rand_symmetric_total_deg(rng, n, nvars, total_deg=1)
        if shape == "zero row":
            z = rng.randrange(n)
            rows = [list(a.row(i)) for i in range(n)]
            for j in range(n):
                rows[z][j] = rows[j][z] = Polynomial.zero(nvars)
            a = PolyMatrix.from_rows(rows)
        if not a.is_zero():
            return a


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    nvars=st.integers(1, 2),
    shape=st.sampled_from(("random", "zero row", "gram")),
    bundle=st.booleans(),
)
def test_branches_follow_paper_recursion(seed, n, nvars, shape, bundle):
    """Same branches, traces and vacuous branches as the block-step recursion,
    and w of at most its degree."""
    a = _trace_subject(seed, n, nvars, shape)
    # the reference's 4 x 4 two-variable bundles take seconds each
    bundle = bundle and (n < 4 or nvars == 1)
    reference = paper_branches(a, bundle)
    _ring, branches = _branches(a, "bundle" if bundle else "single", cap=10_000)
    assert [ref[4:] for ref in reference] == [(t.pivots, t.scales) for _c, t in branches]
    for ref, (cert, _trace) in zip(reference, branches):
        assert cert.w.is_zero() == ref[3].is_zero()
        assert cert.w.degree() <= ref[3].degree()


def test_producers_leave_no_reference_cycles():
    """Everything a producer allocates dies by reference count."""
    a3 = parse_matrix((Path(__file__).parent / "golden" / "a3.mat").read_text())
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        single_path_diagonalize(a3)
        diagonalization_bundle(a3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- the two rings of the walk ---------------------------------------------


def _ring_subject(seed, n, shape, rational=True):
    """A one-variable symmetric matrix with rational coefficients, or integer
    ones, maybe with a zero row and column or a zero corner."""
    rng = random.Random(seed)
    a = rand_symmetric(rng, n, 1)
    dead = rng.randrange(n) if shape == "zero row" else None
    zero = Polynomial.zero(1)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            scale = scale if rational else scale.numerator
            if not (dead in (i, j) or (shape == "zero corner" and i == j == 0)):
                rows[i][j] = rows[j][i] = a[i, j] * scale
    return PolyMatrix.from_rows(rows)


def _route_outputs(a):
    """What standard_form_check and the three routes make of a: minors or
    certificate text, or the refusal's type and message."""
    routes = (
        lambda: tuple(map(str, standard_form_check(a).minors)),
        lambda: format_diag_certificate(standard_form_diagonalize(a)),
        lambda: format_diag_certificate(single_path_diagonalize(a)),
        lambda: format_bundle_certificate(diagonalization_bundle(a, 40)),
    )
    out = []
    for route in routes:
        try:
            out.append(route())
        except (ValueError, BundleTooLarge) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    shape=st.sampled_from(("random", "zero row", "zero corner")),
)
def test_image_walk_matches_polynomial_walk(seed, n, shape):
    a = _ring_subject(seed, n, shape)
    on_images = _route_outputs(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagonal, "_WALK_BITS_CAP", 0)
        assert _route_outputs(a) == on_images


def test_walk_ring_follows_the_image_cap():
    """Subjects past the cap, and two-variable ones, walk on Polynomials."""
    rng = random.Random(7)
    small, ten, two = rand_symmetric(rng, 3, 1), rand_symmetric(rng, 10, 1), rand_symmetric(rng, 3, 2)
    big = M([[f"t1^4000 + {10**300}", "1", "0"], ["1", "t1", "1"], ["0", "1", "2"]])
    for route in ("standard", "single", "bundle"):
        assert diagonal._packed(small, route)[0].one == 1
        for a in (ten, two, big):
            assert isinstance(diagonal._packed(a, route)[0].one, Polynomial)
    with pytest.MonkeyPatch.context() as mp:
        images = count_calls(mp, "_images", (diagonal,))
        single_path_diagonalize(small)
        assert len(images) == 1
        for a in (ten, big):
            single_path_diagonalize(a)
        standard_form_diagonalize(ten)
        assert len(images) == 1


def test_producers_test_their_subject_for_symmetry_once(monkeypatch):
    """A producer tests its subject for symmetry once per call, on either
    ring: its check reads that test off the walk's context."""
    subjects = (
        M([["t1", "1", "0"], ["1", "t1^2", "t1"], ["0", "t1", "2"]]),
        M([["t1", "t2", "0"], ["t2", "t1*t2", "1"], ["0", "1", "t2^2"]], 2),
    )
    tested = []
    is_symmetric = PolyMatrix.is_symmetric

    def counted(m):
        tested.append(m)
        return is_symmetric(m)

    monkeypatch.setattr(PolyMatrix, "is_symmetric", counted)
    rings = set()
    for cap in (diagonal._WALK_BITS_CAP, 0):
        monkeypatch.setattr(diagonal, "_WALK_BITS_CAP", cap)
        for a in subjects:
            rings.add(type(diagonal._packed(a, "single")[0].one))
            for produce in (standard_form_diagonalize, single_path_diagonalize, diagonalization_bundle):
                tested.clear()
                produce(a)
                assert tested == [a], (produce.__name__, cap, a.nvars)
    assert rings == {int, Polynomial}


# -- the producers' seeded checks --------------------------------------------

PRODUCERS = {
    "standard": lambda a: format_diag_certificate(standard_form_diagonalize(a)),
    "single": lambda a: format_diag_certificate(single_path_diagonalize(a)),
    "bundle": lambda a: format_bundle_certificate(diagonalization_bundle(a, 40)),
}


def _produce_recording(route, a):
    """(the route's certificate text, or its refusal's type and message, and
    (subject, certificate, image context, betas, failures) for each check it
    ran, betas those at which the check imaged factors afresh)."""
    checks = []
    check = certificates.diag_certificate_failures
    images_at = polymat._images
    betas = []

    def recorded(subject, cert, images=None):
        betas.clear()
        failures = check(subject, cert, images)
        checks.append((subject, cert, images, list(betas), failures))
        return failures

    def imaged(forms, scale, beta):
        betas.append(beta)
        return images_at(forms, scale, beta)

    with pytest.MonkeyPatch.context() as mp:
        for module in (certificates, diagonal):
            mp.setattr(module, "diag_certificate_failures", recorded)
        mp.setattr(polymat, "_images", imaged)
        try:
            out = PRODUCERS[route](a)
        except (ValueError, BundleTooLarge, InternalIdentityFailure) as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, checks


def _assert_checks_match_parsed(checks, seeded):
    """Each recorded check, seeded by the walk when seeded is true, found
    what diag_certificate_failures finds on the certificate's text.  An
    identity is imaged afresh only when its own beta exceeds the seeds'."""
    for subject, cert, images, betas, failures in checks:
        assert (images is not None and images.beta > 0) == seeded
        assert all(beta > (images.beta if seeded else 0) for beta in betas)
        parsed = parse_certificate(format_diag_certificate(cert))[1]
        assert diag_certificate_failures(subject, parsed) == failures


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    shape=st.sampled_from(("random", "zero row", "zero corner")),
    rational=st.booleans(),
)
# standard-route subjects whose D = X_minus*A*X_minus^t needs a beta above
# the walk's, so that identity is imaged afresh
@example(seed=3628800, n=2, shape="random", rational=True)
@example(seed=309854272, n=2, shape="random", rational=True)
@example(seed=1312775734, n=2, shape="random", rational=True)
@example(seed=3222180334, n=2, shape="random", rational=True)
def test_seeded_checks_match_parsed_certificates(seed, n, shape, rational):
    """Every identity the producers check on their walk's own integers is
    decided as on the certificate parsed back from its text, and on the
    walk's seeds unless its own bound needs a larger beta (the fallback the
    diagonal module documents)."""
    a = _ring_subject(seed, n, shape, rational)
    for route in PRODUCERS:
        _out, checks = _produce_recording(route, a)
        _assert_checks_match_parsed(checks, seeded=True)


def _bent_step(rows, k, prev, symmetric=False):
    """polymat._bareiss_step, then the last pivot bumped by one after the
    walk's last step: a walk that emits a wrong certificate."""
    polymat._bareiss_step(rows, k, prev, symmetric)
    last = len(rows) - 1
    if k == last - 1:
        rows[last][last] = rows[last][last] + 1


@pytest.mark.parametrize("rational", (False, True))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("route", tuple(PRODUCERS))
def test_bent_walk_fails_alike_on_both_rings(route, n, rational):
    """A bent walk raises the same InternalIdentityFailure text on integer
    images, checked on its seeds, and on Polynomials."""
    a = _ring_subject(11, n, "random", rational)
    outs = []
    for cap in (diagonal._WALK_BITS_CAP, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagonal, "_bareiss_step", _bent_step)
            mp.setattr(diagonal, "_WALK_BITS_CAP", cap)
            out, checks = _produce_recording(route, a)
        _assert_checks_match_parsed(checks, seeded=bool(cap))
        assert any(failures for *_, failures in checks)
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("InternalIdentityFailure: ")


@pytest.mark.parametrize("rational", (False, True))
@pytest.mark.parametrize("route", tuple(PRODUCERS))
def test_seeds_below_the_bound_fall_back_to_fresh_images(route, rational):
    """With the seeds' beta read below every identity's own bound, each
    identity is imaged afresh, and the certificates stay byte-identical."""
    a = _ring_subject(5, 3, "random", rational)  # in standard form, 12 branches
    honest, _checks = _produce_recording(route, a)
    holds = certificates.identity_holds

    def low_seeds(lhs, rhs, images=None):
        saved, images.beta = images.beta, 2
        try:
            return holds(lhs, rhs, images)
        finally:
            images.beta = saved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "identity_holds", low_seeds)
        fresh = count_calls(mp, "_images", (polymat,))
        assert _produce_recording(route, a)[0] == honest
    assert fresh
    assert not honest.startswith(("NotStandardForm", "InternalIdentityFailure"))
