"""Tests for certificate types, verifiers, the witness calculus, and the
certificate file format."""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from polydiag import __version__, certificates, polymat
from polydiag.arith import Polynomial, parse_polynomial
from polydiag.certificates import (
    MAX_GENERATORS,
    DiagBundle,
    DiagCertificate,
    EquivCertificatePackage,
    EquivWitness,
    MembershipCertificatePackage,
    ModuleMembershipCertificate,
    PivotTrace,
    SosMatrixCertificate,
    bundle_certificate_failures,
    choi_type_fixture,
    compose_witnesses,
    construct_module_element,
    diag_certificate_failures,
    equiv_witness_failures,
    format_bundle_certificate,
    format_diag_certificate,
    format_equiv_certificate,
    format_membership_certificate,
    format_sos_certificate,
    knk_element,
    membership_failures,
    parse_certificate,
    sos_matrix_failures,
    symmetrize_witness,
    tmodule_generators,
    tmodule_index_sets,
    witness_from_diag_certificate,
)
from polydiag.diagonal import (
    diagonalization_bundle,
    single_path_diagonalize,
    standard_form_diagonalize,
)
from polydiag.errors import InternalIdentityFailure, NotSymmetric, ParseError
from polydiag.polymat import PolyMatrix, congruence_sum, parse_matrix

from helpers import (
    DIAG_BUNDLE,
    DIAG_SINGLE,
    EQUIV,
    count_calls,
    rand_matrix,
    rand_symmetric,
    rand_symmetric_total_deg,
)


def P(text, nvars=1):
    return parse_polynomial(text, nvars)


def M(rows, nvars=1):
    return PolyMatrix.from_rows([[P(s, nvars) for s in row] for row in rows])


SUBJECT = M([["t1", "1"], ["1", "t1"]])


def trivial_witness(a):
    one = Polynomial.one(a.nvars)
    eye = PolyMatrix.identity(a.rows, a.nvars)
    return EquivWitness(one, (one,), one, (one,), one, eye, eye)


# -- diagonalization certificates ---------------------------------------------


def test_verify_accepts_all_three_producers():
    cert_std = standard_form_diagonalize(SUBJECT)
    cert_single = single_path_diagonalize(SUBJECT)
    bundle = diagonalization_bundle(SUBJECT)
    assert not diag_certificate_failures(SUBJECT, cert_std)
    assert not diag_certificate_failures(SUBJECT, cert_single)
    assert not bundle_certificate_failures(SUBJECT, bundle)
    assert diag_certificate_failures(SUBJECT, cert_std) == []


def test_verify_rejects_tampered_d_entry():
    cert = single_path_diagonalize(SUBJECT)
    rows = [[cert.D[i, j] for j in range(2)] for i in range(2)]
    rows[0][0] = rows[0][0] + 1
    bad = replace(cert, D=PolyMatrix.from_rows(rows))
    fails = diag_certificate_failures(SUBJECT, bad)
    assert "D = X_minus*A*X_minus^t" in fails
    assert "w^2*A = X_plus*D*X_plus^t" in fails
    assert diag_certificate_failures(SUBJECT, bad)


def test_verify_rejects_non_diagonal_d():
    cert = single_path_diagonalize(SUBJECT)
    rows = [[cert.D[i, j] for j in range(2)] for i in range(2)]
    rows[0][1] = Polynomial.one(1)
    bad = replace(cert, D=PolyMatrix.from_rows(rows))
    assert "D is diagonal" in diag_certificate_failures(SUBJECT, bad)


def test_verify_rejects_tampered_w():
    cert = single_path_diagonalize(SUBJECT)
    bad = replace(cert, w=cert.w + 1)
    fails = diag_certificate_failures(SUBJECT, bad)
    assert "X_plus*X_minus = w*I" in fails
    assert "X_minus*X_plus = w*I" in fails


def test_verify_rejects_wrong_subject():
    cert = single_path_diagonalize(SUBJECT)
    other = M([["t1", "0"], ["0", "t1"]])
    assert diag_certificate_failures(other, cert)


def test_verify_subject_preconditions():
    cert = single_path_diagonalize(SUBJECT)
    with pytest.raises(ValueError):
        diag_certificate_failures(PolyMatrix.identity(3, 1), cert)
    with pytest.raises(ValueError):
        diag_certificate_failures(PolyMatrix.identity(2, 2), cert)
    with pytest.raises(NotSymmetric):
        diag_certificate_failures(M([["t1", "1"], ["0", "t1"]]), cert)


def test_bundle_tests_its_subject_for_symmetry_once(monkeypatch):
    """A bundle's branches share one symmetry test of the subject; a
    subject that is not symmetric is refused as a single certificate's is."""
    bundle = diagonalization_bundle(SUBJECT)
    assert len(bundle.branches) > 1
    tested = []
    is_symmetric = PolyMatrix.is_symmetric

    def counted(m):
        tested.append(m)
        return is_symmetric(m)

    monkeypatch.setattr(PolyMatrix, "is_symmetric", counted)
    same = PolyMatrix(SUBJECT.rows, SUBJECT.cols, SUBJECT.entries)
    assert bundle_certificate_failures(same, bundle) == []
    assert tested == [same]
    lopsided = M([["t1", "1"], ["0", "t1"]])
    with pytest.raises(NotSymmetric, match="^subject matrix is not symmetric$"):
        bundle_certificate_failures(lopsided, bundle)
    with pytest.raises(NotSymmetric, match="^subject matrix is not symmetric$"):
        diag_certificate_failures(lopsided, bundle.branches[0][0])


def test_bundle_failures_name_the_branch():
    bundle = diagonalization_bundle(SUBJECT)
    cert, trace = bundle.branches[1]
    bad_cert = replace(cert, w=cert.w + 1)
    branches = list(bundle.branches)
    branches[1] = (bad_cert, trace)
    tampered = DiagBundle(tuple(branches))
    fails = bundle_certificate_failures(SUBJECT, tampered)
    assert fails and all(f.startswith("branch 2: ") for f in fails)
    assert bundle_certificate_failures(SUBJECT, tampered)


def test_bundle_records_its_verified_subject(monkeypatch):
    calls = count_calls(monkeypatch, "diag_certificate_failures", (certificates,))
    bundle = diagonalization_bundle(SUBJECT)
    branches = len(bundle.branches)
    assert len(calls) == branches
    calls.clear()
    assert bundle_certificate_failures(SUBJECT, bundle) == [] and calls == []
    # another subject is verified again and rejected; the record stays
    assert bundle_certificate_failures(M([["t1", "0"], ["0", "t1"]]), bundle)
    assert len(calls) == branches
    calls.clear()
    assert bundle_certificate_failures(SUBJECT, bundle) == [] and calls == []
    # an equal matrix that is another object is verified again, and accepted
    same = PolyMatrix(SUBJECT.rows, SUBJECT.cols, SUBJECT.entries)
    assert same == SUBJECT and same is not SUBJECT
    assert bundle_certificate_failures(same, bundle) == [] and len(calls) == branches
    # built, copied and parsed bundles start unverified, and the record is
    # not part of ==, repr or the certificate bytes
    text = format_bundle_certificate(bundle)
    for fresh in (
        DiagBundle(bundle.branches),
        replace(bundle),
        parse_certificate(text)[1],
    ):
        assert fresh == bundle and repr(fresh) == repr(bundle)
        assert format_bundle_certificate(fresh) == text
        calls.clear()
        assert bundle_certificate_failures(same, fresh) == [] and len(calls) == branches


def test_certificate_shape_validation():
    with pytest.raises(ValueError):
        DiagCertificate(PolyMatrix.identity(2, 1), PolyMatrix.identity(3, 1),
                        PolyMatrix.identity(3, 1), Polynomial.one(1))
    with pytest.raises(ValueError):
        PivotTrace(((2, 1),))
    with pytest.raises(ValueError):
        DiagBundle(())


@pytest.mark.parametrize("pair", [(True, True), (1, True), (1.0, 2), (1, "2")])
def test_pivot_trace_refuses_what_is_not_an_int(pair):
    # the writer would print True as "True", which parse_certificate refuses
    with pytest.raises(ValueError, match="^bad pivot pair"):
        PivotTrace((pair,))


# -- equivalence witnesses ------------------------------------------------------


def test_trivial_self_witness():
    wit = trivial_witness(SUBJECT)
    assert not equiv_witness_failures(SUBJECT, SUBJECT, wit)


def test_witness_from_diag_certificate():
    cert = single_path_diagonalize(SUBJECT)
    wit = witness_from_diag_certificate(cert)
    assert wit.s1 == cert.w * cert.w
    assert wit.s2 == Polynomial.one(1)
    assert wit.z == cert.w
    assert not equiv_witness_failures(SUBJECT, cert.D, wit)


def test_symmetrize_witness_round_trip():
    cert = single_path_diagonalize(SUBJECT)
    wit = witness_from_diag_certificate(cert)
    back = symmetrize_witness(SUBJECT, cert.D, wit)
    assert not equiv_witness_failures(cert.D, SUBJECT, back)
    again = symmetrize_witness(cert.D, SUBJECT, back)
    assert not equiv_witness_failures(SUBJECT, cert.D, again)


def test_compose_witnesses_chain():
    cert = single_path_diagonalize(SUBJECT)
    wit = witness_from_diag_certificate(cert)
    back = symmetrize_witness(SUBJECT, cert.D, wit)
    loop = compose_witnesses(SUBJECT, cert.D, SUBJECT, wit, back)
    assert not equiv_witness_failures(SUBJECT, SUBJECT, loop)


def test_compose_with_trivial_witness():
    cert = single_path_diagonalize(SUBJECT)
    wit = witness_from_diag_certificate(cert)
    out = compose_witnesses(SUBJECT, SUBJECT, cert.D, trivial_witness(SUBJECT), wit)
    assert not equiv_witness_failures(SUBJECT, cert.D, out)


def test_witness_square_decomposition_checked():
    wit = trivial_witness(SUBJECT)
    bad = replace(wit, s1_squares=(P("t1"),))
    fails = equiv_witness_failures(SUBJECT, SUBJECT, bad)
    assert "s1 = sum of its stored squares" in fails
    bad = replace(wit, s2_squares=(P("t1"), P("1")))
    fails = equiv_witness_failures(SUBJECT, SUBJECT, bad)
    assert "s2 = sum of its stored squares" in fails


def test_witness_zero_s_rejected():
    zero = Polynomial.zero(1)
    eye = PolyMatrix.identity(1, 1)
    a = PolyMatrix.zeros(1, 1, 1)
    wit = EquivWitness(zero, (), Polynomial.one(1), (Polynomial.one(1),), Polynomial.one(1), eye, eye)
    fails = equiv_witness_failures(a, a, wit)
    assert "s1 is nonzero" in fails


def test_witness_congruence_identity_checked():
    wit = replace(trivial_witness(SUBJECT), z=P("t1"))
    fails = equiv_witness_failures(SUBJECT, SUBJECT, wit)
    assert "x_minus*x_plus = z*I" in fails
    assert "x_plus*x_minus = z*I" in fails


def test_witness_relation_identity_checked():
    other = M([["t1", "0"], ["0", "t1"]])
    fails = equiv_witness_failures(SUBJECT, other, trivial_witness(SUBJECT))
    assert fails == ["s1*a1 = s2*x_plus*a2*x_plus^t"]


def test_symmetrize_rejects_zero_z():
    one = Polynomial.one(1)
    zero_poly = Polynomial.zero(1)
    zmat = PolyMatrix.zeros(1, 1, 1)
    wit = EquivWitness(one, (one,), one, (one,), zero_poly, zmat, zmat)
    a = PolyMatrix.zeros(1, 1, 1)
    assert not equiv_witness_failures(a, a, wit)
    with pytest.raises(ValueError, match="identically zero"):
        symmetrize_witness(a, a, wit)


def test_calculus_rejects_broken_inputs():
    wit = replace(trivial_witness(SUBJECT), z=P("t1"))
    with pytest.raises(ValueError, match="does not verify"):
        symmetrize_witness(SUBJECT, SUBJECT, wit)
    good = trivial_witness(SUBJECT)
    with pytest.raises(ValueError, match="does not verify"):
        compose_witnesses(SUBJECT, SUBJECT, SUBJECT, wit, good)
    with pytest.raises(ValueError, match="does not verify"):
        compose_witnesses(SUBJECT, SUBJECT, SUBJECT, good, wit)


def test_random_witness_round_trips():
    rng = random.Random(401)
    for _ in range(15):
        n = rng.randint(2, 3)
        a = rand_symmetric_total_deg(rng, n, rng.randint(1, 2))
        if a.is_zero():
            continue
        cert = single_path_diagonalize(a)
        wit = witness_from_diag_certificate(cert)
        assert not equiv_witness_failures(a, cert.D, wit)
        if cert.w.is_zero():
            continue
        back = symmetrize_witness(a, cert.D, wit)
        loop = compose_witnesses(a, cert.D, a, wit, back)
        assert not equiv_witness_failures(a, a, loop)


# -- SOS-matrix certificates ----------------------------------------------------


def test_sos_scalar_example():
    a = M([["1 + t1^2"]])
    cert = SosMatrixCertificate(P("1"), (M([["1"]]), M([["t1"]])))
    assert not sos_matrix_failures(a, cert)


def test_sos_gram_square():
    g = M([["t1", "1"], ["0", "t1 + 1"]])
    cert = SosMatrixCertificate(P("1"), (g,))
    assert not sos_matrix_failures(g.transpose() @ g, cert)


def test_sos_rectangular_factor():
    g = M([["t1", "1"]])
    cert = SosMatrixCertificate(P("1"), (g,))
    assert not sos_matrix_failures(g.transpose() @ g, cert)


def test_sos_nonzero_scalar_denominator():
    # (1+t^2) * A with A = G^t G / scaling folded into c
    a = M([["t1^2"]])
    cert = SosMatrixCertificate(P("t1"), (M([["t1^2"]]),))
    assert not sos_matrix_failures(a, cert)


def test_sos_rejects_wrong_subject():
    cert = SosMatrixCertificate(P("1"), (M([["1"]]),))
    fails = sos_matrix_failures(M([["-1"]]), cert)
    assert fails == ["c^2*A = sum(Q^t*Q)"]


def test_sos_rejects_zero_c():
    cert = SosMatrixCertificate(Polynomial.zero(1), (PolyMatrix.zeros(1, 1, 1),))
    fails = sos_matrix_failures(PolyMatrix.zeros(1, 1, 1), cert)
    assert fails == ["c is nonzero"]


def test_sos_preconditions():
    cert = SosMatrixCertificate(P("1"), (M([["1", "0"]]),))
    with pytest.raises(ValueError):
        sos_matrix_failures(M([["1"]]), cert)
    with pytest.raises(NotSymmetric):
        sos_matrix_failures(M([["1", "t1"], ["0", "1"]]), SosMatrixCertificate(P("1"), (M([["1", "0"]]),)))


# -- preordering generators and membership ---------------------------------------


def test_index_sets_ordering():
    assert tmodule_index_sets(0) == ((),)
    assert tmodule_index_sets(1) == ((), (1,))
    assert tmodule_index_sets(2) == ((), (1,), (2,), (1, 2))
    assert tmodule_index_sets(3) == (
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    )
    with pytest.raises(ValueError):
        tmodule_index_sets(-1)


def test_index_sets_refuse_too_many_generators():
    r = MAX_GENERATORS + 1
    with pytest.raises(ValueError, match=f"^{r} generators exceed the cap of {MAX_GENERATORS} "):
        tmodule_index_sets(r)
    ones = [PolyMatrix.identity(1, 1)] * r
    with pytest.raises(ValueError, match="exceed the cap"):
        tmodule_generators(ones)


def test_generators_single():
    b = PolyMatrix.diagonal([P("t1"), P("1")])
    gens = tmodule_generators([b])
    assert gens == (PolyMatrix.identity(2, 1), b)


def test_generators_pair_products():
    b1 = PolyMatrix.diagonal([P("t1"), P("1")])
    b2 = PolyMatrix.diagonal([P("2"), P("t1^2")])
    gens = tmodule_generators([b1, b2])
    assert gens == (PolyMatrix.identity(2, 1), b1, b2, b1 @ b2)


def test_generators_annihilating_product():
    b1 = PolyMatrix.diagonal([P("t1"), P("0")])
    b2 = PolyMatrix.diagonal([P("0"), P("t1")])
    gens = tmodule_generators([b1, b2])
    assert gens[3].is_zero()


def test_generators_reject_non_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        tmodule_generators([M([["1", "t1"], ["t1", "1"]])])
    with pytest.raises(ValueError):
        tmodule_generators([])


def test_construct_module_element():
    eye = PolyMatrix.identity(2, 1)
    g = M([["t1", "1"], ["0", "t1"]])
    assert construct_module_element([eye], [[g]]) == g.transpose() @ g
    assert construct_module_element([eye], []) == PolyMatrix.zeros(2, 2, 1)
    d = PolyMatrix.diagonal([P("t1"), P("1")])
    assert construct_module_element([d], [[eye]]) == d
    with pytest.raises(NotSymmetric):
        construct_module_element([M([["1", "t1"], ["0", "1"]])], [])


def test_membership_simple():
    b = PolyMatrix.diagonal([P("t1"), P("1")])
    y = M([["1", "t1"], ["0", "1"]])
    element = y.transpose() @ b @ y
    cert = ModuleMembershipCertificate(((1,),), ((y,),))
    assert not membership_failures(element, [b], cert)


def test_membership_identity_summand():
    y = M([["1", "t1"], ["0", "1"]])
    element = y.transpose() @ y
    cert = ModuleMembershipCertificate(((),), ((y,),))
    b = PolyMatrix.diagonal([P("t1"), P("1")])
    assert not membership_failures(element, [b], cert)


def test_membership_multi_term():
    b1 = PolyMatrix.diagonal([P("t1"), P("1")])
    b2 = PolyMatrix.diagonal([P("1"), P("t1^2")])
    y1 = M([["1", "0"], ["t1", "1"]])
    y2 = M([["t1", "1"], ["1", "0"]])
    element = (
        y1.transpose() @ b1 @ y1
        + y2.transpose() @ (b1 @ b2) @ y2
    )
    cert = ModuleMembershipCertificate(((1,), (1, 2)), ((y1,), (y2,)))
    assert not membership_failures(element, [b1, b2], cert)


def test_membership_rejects_offset():
    b = PolyMatrix.diagonal([P("t1"), P("1")])
    y = M([["1", "t1"], ["0", "1"]])
    element = y.transpose() @ b @ y + PolyMatrix.identity(2, 1)
    cert = ModuleMembershipCertificate(((1,),), ((y,),))
    assert membership_failures(element, [b], cert) == ["element = sum(y^t*G_idx*y)"]


def test_membership_preconditions():
    b = PolyMatrix.diagonal([P("t1"), P("1")])
    y = M([["1", "t1"], ["0", "1"]])
    cert = ModuleMembershipCertificate(((2,),), ((y,),))
    with pytest.raises(ValueError, match="exceeds"):
        membership_failures(y.transpose() @ y, [b], cert)
    bad = ModuleMembershipCertificate(((1,),), ((M([["1", "0", "0"], ["0", "1", "0"]]),),))
    with pytest.raises(ValueError):
        membership_failures(y.transpose() @ y, [b], bad)
    with pytest.raises(ValueError):
        ModuleMembershipCertificate(((2, 1),), ((y,),))


@pytest.mark.parametrize("idx", [(True,), (1, True), (1.0,), ("1",)])
def test_membership_index_sets_refuse_what_is_not_an_int(idx):
    y = M([["1", "t1"], ["0", "1"]])
    with pytest.raises(ValueError, match="^bad index set"):
        ModuleMembershipCertificate((idx,), ((y,),))


def test_membership_refuses_too_many_generators(monkeypatch):
    r = MAX_GENERATORS + 1
    y = PolyMatrix.identity(1, 1)
    cert = ModuleMembershipCertificate((tuple(range(1, r + 1)),), ((y,),))
    products = count_calls(monkeypatch, "__matmul__", (PolyMatrix,))
    with pytest.raises(ValueError, match=f"^{r} generators exceed the cap of {MAX_GENERATORS} "):
        membership_failures(y, [PolyMatrix.diagonal([P("1 + t1")])] * r, cert)
    assert products == []


def test_membership_multiplies_each_index_set_once(monkeypatch):
    # 200 terms that all chain the same sixteen 8x8 generators
    gens = [PolyMatrix.diagonal([P(f"{k + i} + t1") for i in range(8)]) for k in range(16)]
    chain = tuple(range(1, 17))
    rng = random.Random(3)
    ys = [M([[str(rng.randint(-2, 2)) for _ in range(2)] for _ in range(8)]) for _ in range(200)]
    prod = gens[0]
    for g in gens[1:]:
        prod = prod @ g
    element = congruence_sum(2, 1, [(y.transpose(), prod) for y in ys])
    honest = ModuleMembershipCertificate((chain,) * 200, [(y,) for y in ys])
    bumped = ys[7].entries[:3] + (ys[7].entries[3] + P("t1"),) + ys[7].entries[4:]
    tampered = replace(honest, coefficients=[(y,) for y in ys[:7] + [PolyMatrix(8, 2, bumped)] + ys[8:]])
    products = count_calls(monkeypatch, "__matmul__", (PolyMatrix,))
    for cert, expected in ((honest, []), (tampered, ["element = sum(y^t*G_idx*y)"])):
        products.clear()
        assert membership_failures(element, gens, cert) == expected
        assert len(products) == 15  # one chain, not one per term
        with pytest.MonkeyPatch.context() as mp:  # the sparse products agree
            mp.setattr(polymat, "_IMAGE_BITS_CAP", 0)
            assert membership_failures(element, gens, cert) == expected


def test_knk_identity():
    eye = PolyMatrix.identity(2, 1)
    assert knk_element(2, 2, [eye], [eye]) == eye


def test_knk_rank_one_square():
    x = M([["t1", "1"]])
    one = M([["1"]])
    out = knk_element(1, 2, [one], [x])
    assert out == M([["t1^2", "t1"], ["t1", "1"]])


def test_knk_empty_sum_is_zero():
    assert knk_element(2, 3, [], [], nvars=2) == PolyMatrix.zeros(3, 3, 2)


def test_knk_validation():
    eye = PolyMatrix.identity(2, 1)
    with pytest.raises(ValueError):
        knk_element(2, 2, [eye], [])
    with pytest.raises(ValueError):
        knk_element(3, 2, [eye], [eye])


def test_module_sums_equal_added_congruences():
    """knk_element and construct_module_element against the reference loop
    of one x^t*a*x product added per term: a_l not symmetric for
    knk_element, generators of mixed dimensions and several coefficient
    rows for construct_module_element, and empty lists for both."""
    rng = random.Random(8117)
    for trial in range(40):
        nvars = 1 + trial % 2
        k, n, count = rng.randint(1, 3), rng.randint(1, 3), trial % 4
        a_list = [rand_matrix(rng, k, k, nvars) for _ in range(count)]
        x_list = [rand_matrix(rng, k, n, nvars) for _ in range(count)]
        expected = PolyMatrix.zeros(n, n, nvars)
        for a, x in zip(a_list, x_list):
            expected = expected + x.transpose() @ a @ x
        assert knk_element(k, n, a_list, x_list, nvars) == expected

        f_list = [rand_symmetric(rng, rng.randint(1, 3), nvars) for _ in range(1 + trial % 3)]
        out_dim = rng.randint(1, 3)
        coeffs = [
            [rand_matrix(rng, f.rows, out_dim, nvars) for f in f_list]
            for _ in range(trial // 4 % 4)
        ]
        size = out_dim if coeffs else f_list[0].rows
        expected = PolyMatrix.zeros(size, size, nvars)
        for row in coeffs:
            for f, a in zip(f_list, row):
                expected = expected + a.transpose() @ f @ a
        assert construct_module_element(f_list, coeffs) == expected


def test_choi_fixture_values():
    c = choi_type_fixture()
    assert c[0, 0] == P("t1^4*t2^2 + 1", 2)
    assert c[0, 1] == P("t1*t2", 2)
    assert c[1, 1] == P("t1^2*t2^4 + 1", 2)
    assert c.is_symmetric()
    at = [[e.evaluate((1, 1)) for e in (c[i, 0], c[i, 1])] for i in range(2)]
    assert at == [[2, 1], [1, 2]]


# -- refusals ---------------------------------------------------------------------

I2, I3 = PolyMatrix.identity(2, 1), PolyMatrix.identity(3, 1)
I2_2VARS = PolyMatrix.identity(2, 2)
ONE = Polynomial.one(1)
ASYMMETRIC = M([["1", "t1"], ["0", "1"]])
Y = M([["1", "t1"], ["0", "1"]])
B = PolyMatrix.diagonal([P("t1"), P("1")])


def _forged(call, *inputs):
    """call, with equiv_witness_failures passing inputs and refusing the rest."""
    real = certificates.equiv_witness_failures
    verify = lambda a1, a2, wit: real(a1, a2, wit) if any(wit is w for w in inputs) else ["forged"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "equiv_witness_failures", verify)
        return call()


def _symmetrized():
    wit = trivial_witness(SUBJECT)
    return _forged(lambda: symmetrize_witness(SUBJECT, SUBJECT, wit), wit)


def _composed():
    wit = trivial_witness(SUBJECT)
    return _forged(lambda: compose_witnesses(SUBJECT, SUBJECT, SUBJECT, wit, wit), wit)


# description: (call, exception type, its text)
REFUSALS = {
    "diag parts in two variable counts": (
        lambda: DiagCertificate(I2, I2, I2, Polynomial.one(2)),
        ValueError, "certificate parts disagree on variable count"),
    "bundle branch not a pair of types": (
        lambda: DiagBundle(((DiagCertificate(I2, I2, I2, ONE), "1 1"),)),
        TypeError, "branches must be (DiagCertificate, PivotTrace) pairs"),
    "bundle branches of two dimensions": (
        lambda: DiagBundle(((DiagCertificate(I2, I2, I2, ONE), PivotTrace(())),
                               (DiagCertificate(I3, I3, I3, ONE), PivotTrace(())))),
        ValueError, "branch dimension disagrees with bundle subject"),
    "witness x_plus and x_minus of two sizes": (
        lambda: EquivWitness(ONE, (ONE,), ONE, (ONE,), ONE, I2, I3),
        ValueError, "x_plus and x_minus must be square of equal dimension"),
    "sos factors of two column counts": (
        lambda: SosMatrixCertificate(ONE, (M([["1", "0"]]), M([["1", "0", "0"]]))),
        ValueError, "factors must share column count and variable count"),
    "membership counts differ": (
        lambda: ModuleMembershipCertificate(((1,), (2,)), ((Y,),)),
        ValueError, "index set and coefficient counts differ"),
    "bundle against a subject of another dimension": (
        lambda: bundle_certificate_failures(I3, diagonalization_bundle(SUBJECT)),
        ValueError, "subject is 3x3, bundle claims dimension 2"),
    "witness against a subject of another dimension": (
        lambda: equiv_witness_failures(I3, SUBJECT, trivial_witness(SUBJECT)),
        ValueError, "witness dimension does not match the subjects"),
    "witness subjects in two variable counts": (
        lambda: equiv_witness_failures(SUBJECT, I2_2VARS, trivial_witness(SUBJECT)),
        ValueError, "subjects and witness disagree on variable count"),
    "witness first subject asymmetric": (
        lambda: equiv_witness_failures(ASYMMETRIC, SUBJECT, trivial_witness(SUBJECT)),
        NotSymmetric, "first subject is not symmetric"),
    "witness second subject asymmetric": (
        lambda: equiv_witness_failures(SUBJECT, ASYMMETRIC, trivial_witness(SUBJECT)),
        NotSymmetric, "second subject is not symmetric"),
    "symmetrized witness fails its check": (
        _symmetrized, InternalIdentityFailure, "symmetrized witness broke: forged"),
    "composed witness fails its check": (
        _composed, InternalIdentityFailure, "composed witness broke: forged"),
    "sos subject not square": (
        lambda: sos_matrix_failures(M([["1", "0"]]), SosMatrixCertificate(ONE, (M([["1", "0"]]),))),
        ValueError, "subject must be square"),
    "sos factor in another variable count": (
        lambda: sos_matrix_failures(I2_2VARS, SosMatrixCertificate(ONE, (M([["1", "0"]]),))),
        ValueError, "factor and subject disagree on variable count"),
    "sos scalar in another variable count": (
        lambda: sos_matrix_failures(I2, SosMatrixCertificate(Polynomial.one(2), ())),
        ValueError, "scalar c and subject disagree on variable count"),
    "generators of two dimensions": (
        lambda: tmodule_generators([B, I3]),
        ValueError, "generator matrices must share dimension and variable count"),
    "module element of no generators": (
        lambda: construct_module_element([], []),
        ValueError, "no module generators"),
    "module generators in two variable counts": (
        lambda: construct_module_element([I2, I2_2VARS], []),
        ValueError, "module generators must share variable count"),
    "module coefficient row too long": (
        lambda: construct_module_element([I2], [[Y, Y]]),
        ValueError, "each coefficient row needs 1 entries"),
    "module coefficient of the wrong row count": (
        lambda: construct_module_element([I2], [[I3]]),
        ValueError, "coefficient is 3x3, generator dimension is 2"),
    "module coefficients of two column counts": (
        lambda: construct_module_element([I2], [[Y], [M([["1", "0", "0"], ["0", "1", "0"]])]]),
        ValueError, "coefficient column counts disagree"),
    "membership of no generators": (
        lambda: membership_failures(I2, [], ModuleMembershipCertificate(((),), ((Y,),))),
        ValueError, "no generator matrices"),
    "membership generators of two dimensions": (
        lambda: membership_failures(I2, [B, I3], ModuleMembershipCertificate(((),), ((Y,),))),
        ValueError, "generator matrices must share dimension and variable count"),
    "membership element in another variable count": (
        lambda: membership_failures(I2_2VARS, [B], ModuleMembershipCertificate(((),), ((Y,),))),
        ValueError, "element and generators disagree on variable count"),
    "membership element not square": (
        lambda: membership_failures(M([["1", "0"]]), [B], ModuleMembershipCertificate(((),), ((Y,),))),
        ValueError, "element must be square"),
    "membership coefficient in another variable count": (
        lambda: membership_failures(I2, [B], ModuleMembershipCertificate(((1,),), ((I2_2VARS,),))),
        ValueError, "coefficient and generators disagree on variable count"),
    "knk of dimension 0": (
        lambda: knk_element(0, 2, [], []),
        ValueError, "dimensions must be positive"),
    "knk factor of the wrong shape": (
        lambda: knk_element(2, 3, [I2], [I2]),
        ValueError, "expected 2x3 factor, got 2x2"),
    "knk entries in two variable counts": (
        lambda: knk_element(2, 2, [I2], [I2_2VARS]),
        ValueError, "entries disagree on variable count"),
    "equiv file without squares": (
        lambda: format_equiv_certificate(EquivCertificatePackage(
            EquivWitness(ONE, (), ONE, (ONE,), ONE, I2, I2), SUBJECT)),
        ValueError, "cannot serialize a witness without square decompositions"),
    "sos file without factors": (
        lambda: format_sos_certificate(SosMatrixCertificate(ONE, ())),
        ValueError, "cannot serialize an SOS certificate without factors"),
    "membership file without generators": (
        lambda: format_membership_certificate(MembershipCertificatePackage(
            ModuleMembershipCertificate(((),), ((Y,),)), ())),
        ValueError, "cannot serialize a membership certificate without generators"),
    "membership file without coefficients": (
        lambda: format_membership_certificate(MembershipCertificatePackage(
            ModuleMembershipCertificate(((),), ((),)), (B,))),
        ValueError, "cannot serialize a membership certificate without coefficients"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusals_name_their_fault(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


# -- certificate file format ------------------------------------------------------


def emit(kind_obj):
    kind, obj = kind_obj
    if kind == "diag":
        return format_diag_certificate(obj)
    if kind == "bundle":
        return format_bundle_certificate(obj)
    if kind == "equiv":
        return format_equiv_certificate(obj)
    if kind == "sos":
        return format_sos_certificate(obj)
    return format_membership_certificate(obj)


def all_kind_fixtures():
    cert = single_path_diagonalize(SUBJECT)
    bundle = diagonalization_bundle(SUBJECT)
    wit = witness_from_diag_certificate(cert)
    sos = SosMatrixCertificate(P("1"), (M([["t1", "1"]]),))
    b1 = PolyMatrix.diagonal([P("t1"), P("1")])
    y = M([["1", "t1"], ["0", "1"]])
    member = MembershipCertificatePackage(
        ModuleMembershipCertificate(((1,),), ((y,),)), (b1,)
    )
    return [
        ("diag", cert),
        ("bundle", bundle),
        ("equiv", EquivCertificatePackage(wit, cert.D)),
        ("sos", sos),
        ("membership", member),
    ]


def test_file_round_trips_all_kinds():
    for kind, obj in all_kind_fixtures():
        text = emit((kind, obj))
        assert text.startswith(f"# generated-by polydiag {__version__}\n")
        parsed_kind, payload = parse_certificate(text)
        assert parsed_kind == kind
        assert emit((kind, payload)) == text


def test_parsed_payloads_equal_originals():
    for kind, obj in all_kind_fixtures():
        _, payload = parse_certificate(emit((kind, obj)))
        if kind in ("diag", "bundle", "sos"):
            assert payload == obj
        elif kind == "equiv":
            assert payload.witness == obj.witness
            assert payload.subject_b == obj.subject_b
        else:
            assert payload.certificate == obj.certificate
            assert payload.generators == obj.generators


def test_parse_rejects_malformed_files():
    good = format_diag_certificate(single_path_diagonalize(SUBJECT))

    with pytest.raises(ParseError, match="empty"):
        parse_certificate("# comment only\n")
    with pytest.raises(ParseError, match="data before"):
        parse_certificate("stray\n" + good)
    with pytest.raises(ParseError, match="unknown certificate kind"):
        parse_certificate(good.replace("kind diag", "kind wurst"))
    with pytest.raises(ParseError, match="missing key 'dim'"):
        parse_certificate(good.replace("dim 2\n", ""))
    with pytest.raises(ParseError, match="must be >= 1"):
        parse_certificate(good.replace("dim 2", "dim 0"))
    with pytest.raises(ParseError, match="must be an integer"):
        parse_certificate(good.replace("dim 2", "dim two"))
    with pytest.raises(ParseError, match="unknown meta key"):
        parse_certificate(good.replace("kind diag", "kind diag\nflavor salt"))
    with pytest.raises(ParseError, match="duplicate meta key"):
        parse_certificate(good.replace("kind diag", "kind diag\nkind diag"))
    with pytest.raises(ParseError, match="expected section"):
        parse_certificate(good.replace("[matrix X_plus]", "[matrix X_minus]", 1))
    with pytest.raises(ParseError, match="extra section"):
        parse_certificate(good + "[poly extra]\n1\n")
    d_block = "[matrix D]\n2 2 1\nt1\n0\n0\nt1^3 - t1"
    assert d_block in good
    with pytest.raises(ParseError, match="expected 2x2"):
        parse_certificate(good.replace(d_block, "[matrix D]\n1 1 1\nt1"))


def test_parse_certificate_parses_each_distinct_line_once(monkeypatch):
    good = format_diag_certificate(single_path_diagonalize(SUBJECT))
    calls = count_calls(monkeypatch, "parse_polynomial", (polymat,))
    _, cert = parse_certificate(good)
    # t1, 0, 1, -1 and t1^3 - t1, across three [matrix] sections and [poly w]
    assert len(calls) == 5
    assert cert.X_plus[0, 0] is cert.D[0, 0] is cert.X_minus[1, 1] is cert.w
    assert parse_certificate(good)[1].w is not cert.w


def test_parse_certificate_reads_each_distinct_trace_line_once(monkeypatch):
    # a3-bundle.out's 36 trace lines hold six distinct pivots
    text = (GOLDEN / "a3-bundle.out").read_text()
    calls = count_calls(monkeypatch, "_pivot", (certificates,))
    _, bundle = parse_certificate(text)
    assert sorted(args[0] for args in calls) == [
        "1 1 1/1", "1 2 2/1", "1 3 2/1", "2 2 1/1", "2 3 2/1", "3 3 1/1",
    ]
    assert sum(len(trace.pivots) for _cert, trace in bundle.branches) == 36
    assert format_bundle_certificate(bundle) == text


def test_parse_certificate_reports_a_repeated_bad_line_first():
    def retyped(text, old, new):
        return "\n".join(new if line == old else line for line in text.split("\n"))

    # the first t1 of the diag certificate is in [matrix X_plus], line 2 of
    # the section; the sos certificate's is its [poly c] line, line 8
    diag = format_diag_certificate(single_path_diagonalize(SUBJECT))
    sos = format_sos_certificate(SosMatrixCertificate(P("t1"), (M([["t1", "1"]]),)))
    for text, message in (
        (diag, "section [matrix X_plus] near line 6: line 2: column 1: unknown variable t2 (nvars=1)"),
        (sos, "line 8: column 1: unknown variable t2 (nvars=1)"),
    ):
        with pytest.raises(ParseError) as info:
            parse_certificate(retyped(text, "t1", "t2"))
        assert str(info.value) == message


def test_parse_rejects_bad_poly_section():
    good = format_diag_certificate(single_path_diagonalize(SUBJECT))
    with pytest.raises(ParseError, match="exactly one line"):
        parse_certificate(good.replace("[poly w]\n", "[poly w]\n1\n", 1))


def test_parse_rejects_bad_bundle_sections():
    bundle = diagonalization_bundle(SUBJECT)
    good = format_bundle_certificate(bundle)
    with pytest.raises(ParseError, match="missing key 'branches'"):
        parse_certificate(good.replace("branches 3\n", ""))
    with pytest.raises(ParseError, match="trace lines"):
        parse_certificate(good.replace("1 1 1/1", "1 1", 1))
    with pytest.raises(ParseError, match="bad scale"):
        parse_certificate(good.replace("1 1 1/1", "1 1 one", 1))
    with pytest.raises(ParseError, match="1 <= i <= j"):
        parse_certificate(good.replace("1 2 2/1", "2 1 2/1", 1))
    with pytest.raises(ParseError, match="must be positive"):
        parse_certificate(good.replace("1 1 1/1", "1 1 -1/1", 1))
    with pytest.raises(ParseError, match="zero denominator"):
        parse_certificate(good.replace("1 1 1/1", "1 1 1/0", 1))


def test_parse_rejects_bad_membership_sections():
    _, member = all_kind_fixtures()[4]
    good = format_membership_certificate(member)
    with pytest.raises(ParseError, match="ascending"):
        parse_certificate(good.replace("[indexset 1]\n1", "[indexset 1]\n0", 1))
    with pytest.raises(ParseError, match="exceeds generator count"):
        parse_certificate(good.replace("[indexset 1]\n1", "[indexset 1]\n2", 1))


def _retraced(pivots):
    """SUBJECT's bundle with its first branch's trace replaced by pivots."""
    (cert, _trace), *rest = diagonalization_bundle(SUBJECT).branches
    return "bundle", DiagBundle(((cert, PivotTrace(pivots)), *rest))


def _member(idx=(1,), ys=(Y,), gens=(B,)):
    """A membership package of one term, by default all_kind_fixtures' own."""
    return "membership", MembershipCertificatePackage(ModuleMembershipCertificate((idx,), (ys,)), gens)


def _equiv(subject_b):
    wit = witness_from_diag_certificate(single_path_diagonalize(SUBJECT))
    return "equiv", EquivCertificatePackage(wit, subject_b)


# Payloads whose file parse_certificate would refuse, and its message
WRITER_REFUSALS = {
    "trace longer than dim - 1": (
        lambda: _retraced(((1, 1), (1, 1), (1, 1))),
        "section [trace 1]: 3 pivots for dim 2, at most 1 fit",
    ),
    "pivot outside its block": (
        lambda: _retraced(((1, 3),)),
        "section [trace 1]: pivot (1,3) outside its 2x2 block",
    ),
    "coefficient of the wrong shape": (
        lambda: _member(ys=(M([["1", "t1"], ["0", "1"], ["1", "0"]]),)),
        "section [matrix coeff_1_1]: expected 2x2, got 3x2",
    ),
    "coefficient in two variables": (
        lambda: _member(ys=(M([["1", "t2"], ["0", "1"]], 2),)),
        "section [matrix coeff_1_1]: expected nvars 1, got 2",
    ),
    "index past the generator count": (
        lambda: _member(idx=(2,)),
        "section [indexset 1]: index exceeds generator count 1",
    ),
    "non-square generator": (
        lambda: _member(gens=(M([["t1", "0", "0"], ["0", "1", "0"]]),)),
        "section [matrix generator_1]: generators must be square",
    ),
    "generators of two dimensions": (
        lambda: _member(gens=(B, I3)),
        "section [matrix generator_2]: generators must share dimension",
    ),
    "generator in two variables": (
        lambda: _member(gens=(B, I2_2VARS)),
        "section [matrix generator_2]: expected nvars 1, got 2",
    ),
    "asymmetric second subject": (
        lambda: _equiv(ASYMMETRIC),
        "section [matrix subject_b]: second subject is not symmetric",
    ),
    "second subject of the wrong dimension": (
        lambda: _equiv(I3),
        "section [matrix subject_b]: expected 2x2, got 3x3",
    ),
}


@pytest.mark.parametrize("case", list(WRITER_REFUSALS))
def test_writer_refuses_what_its_reader_refuses(case, monkeypatch):
    """format_* raises a ValueError with the reader's message instead of
    writing a file that parse_certificate refuses."""
    build, message = WRITER_REFUSALS[case]
    kind_obj = build()
    with pytest.raises(ValueError) as info:
        emit(kind_obj)
    assert (type(info.value), str(info.value)) == (ValueError, message)
    with monkeypatch.context() as mp:  # the file an unchecked writer emits
        mp.setattr(certificates._Writer, "check", lambda self, ok, message: None)
        text = emit(kind_obj)
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "s1,unchecked",
    [
        ("t2^2", "line 15: column 1: unknown variable t2 (nvars=1)"),
        ("t1^2", "t1^2 in 1 variable"),  # read back silently as another polynomial
    ],
)
def test_writer_refuses_a_poly_of_another_variable_count(s1, unchecked, monkeypatch):
    kind, pkg = _equiv(single_path_diagonalize(SUBJECT).D)
    pkg = replace(pkg, witness=replace(pkg.witness, s1=P(s1, 2)))
    with pytest.raises(ValueError) as info:
        emit((kind, pkg))
    assert (type(info.value), str(info.value)) == (ValueError, "section [poly s1]: expected nvars 1, got 2")
    with monkeypatch.context() as mp:  # the file an unchecked writer emits
        mp.setattr(certificates._Writer, "check", lambda self, ok, message: None)
        text = emit((kind, pkg))
    try:
        s1_read = parse_certificate(text)[1].witness.s1
        got = f"{s1_read} in {s1_read.nvars} variable"
    except ParseError as exc:
        got = str(exc)
    assert got == unchecked


def test_parse_rejects_wrong_factor_columns():
    sos = SosMatrixCertificate(P("1"), (M([["t1", "1"]]),))
    good = format_sos_certificate(sos)
    bad = good.replace("[matrix Q_1]\n1 2 1\nt1\n1", "[matrix Q_1]\n1 1 1\nt1")
    with pytest.raises(ParseError, match="expected 2 columns"):
        parse_certificate(bad)


# Every ParseError raise site of the certificate and matrix file formats,
# reached by one edit of a certificate: (source, old text, new text, the full
# error message).  The first occurrence of old is replaced.  The source is a
# golden file, or one of the certificates of a.mat pinned in helpers, so
# that regenerating the goldens leaves these rows alone: "diag-single", its
# single-path certificate, and "diag-bundle.out" and "equiv.cert", its bundle
# and equivalence certificates as those goldens read when pinned.
GOLDEN = Path(__file__).parent / "golden"

PINNED = {"diag-single": DIAG_SINGLE, "diag-bundle.out": DIAG_BUNDLE, "equiv.cert": EQUIV}

MALFORMED = [
    ('diag-single', '# generated', 'stray\n# generated',
     'line 1: data before the first section header'),
    ('diag-single', '[poly w]\nt1^2\n', '',
     'missing section [poly w]'),
    ('diag-single', '[matrix X_plus]', '[matrix X_minus]',
     'line 6: expected section [matrix X_plus], found [matrix X_minus]'),
    ('diag-single', '[meta]\n', '[poly w]\n1\n[meta]\n',
     'line 2: expected section [meta], found [poly w]'),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt1^2\n[poly extra]\n1\n',
     'line 26: unexpected extra section [poly extra]'),
    ('diag-single', '[matrix X_plus]', '[meta]',
     'line 6: expected section [matrix X_plus], found [meta]'),
    ('diag-single', '[meta]', '[matrix]',
     'line 2: expected section [meta], found [matrix]'),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt1^2\n[meta]\n',
     'line 26: unexpected extra section [meta]'),
    ('diag-single', 'kind diag\n', 'kind diag\nflavor\n',
     "line 4: meta lines are 'key value', got 'flavor'"),
    ('diag-single', 'kind diag\n', 'kind diag\nkind diag\n',
     "line 4: duplicate meta key 'kind'"),
    ('diag-single', 'kind diag\n', 'kind diag\nflavor salt\n',
     "line 4: unknown meta key 'flavor'"),
    ('diag-single', 'nvars 1\n', 'nvars 1\nterms 5\n',
     "line 6: meta key 'terms' does not belong to kind 'diag'"),
    ('diag-single', 'dim 2\n', '',
     "meta section at line 2 is missing key 'dim'"),
    ('diag-single', 'dim 2\n', 'dim two\n',
     "line 4: meta key 'dim' must be an integer, got 'two'"),
    ('diag-single', 'dim 2\n', 'dim 0\n',
     "line 4: meta key 'dim' must be >= 1, got 0"),
    ('diag-single', 'dim 2\n', 'dim \uff12\n',
     "line 4: meta key 'dim' must be an integer, got '\uff12'"),
    ('diag-single', 'dim 2\n', 'dim 0_2\n',
     "line 4: meta key 'dim' must be an integer, got '0_2'"),
    ('diag-single', 'dim 2\n', 'dim +2\n',
     "line 4: meta key 'dim' must be an integer, got '+2'"),
    ('diag-single', 'nvars 1\n', 'nvars \u0661\n',
     "line 5: meta key 'nvars' must be an integer, got '\u0661'"),
    ('diag-single', 'nvars 1\n', 'nvars -1\n',
     "line 5: meta key 'nvars' must be >= 1, got -1"),
    ('diag-single', 'nvars 1\n', 'nvars 100000\n',
     "line 5: meta key 'nvars' must be <= 64, got 100000"),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n2 2 65\n',
     "section [matrix D] near line 18: line 1: nvars 65 exceeds the maximum 64"),
    ('diag-single', '[matrix D]\n2 2 1\nt1\n0\n', '[matrix D]\n2 2 1\nt1\u20280\n',
     'section [matrix D] near line 18: expected 4 entries, file ends after 3'),
    ('diag-single', '[poly w]\nt1^2\n', '\f\n[poly w]\nt1^2 +\n',
     'line 26: column 7: expected a term'),
    ('diag-single', '[matrix D]\n2 2 1\nt1\n0\n0\nt1^3 - t1\n', '[matrix D]\n',
     'section [matrix D] near line 18: empty matrix file'),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n2 2\n',
     "section [matrix D] near line 18: line 1: header must be 'rows cols nvars', got '2 2'"),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n2 2 one\n',
     "section [matrix D] near line 18: line 1: header must hold three integers, got '2 2 one'"),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n0_2 2 1\n',
     "section [matrix D] near line 18: line 1: header must hold three integers, got '0_2 2 1'"),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n2 2 \uff11\n',
     "section [matrix D] near line 18: line 1: header must hold three integers, got '2 2 \uff11'"),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n2 0 1\n',
     "section [matrix D] near line 18: line 1: header values must be positive, got '2 0 1'"),
    ('diag-single', '[matrix D]\n2 2 1\nt1\n0\n0\nt1^3 - t1\n', '[matrix D]\n2 2 1\nt1\n0\n0\n',
     'section [matrix D] near line 18: expected 4 entries, file ends after 3'),
    ('diag-single', '[matrix D]\n2 2 1\nt1\n0\n0\nt1^3 - t1\n', '[matrix D]\n2 2 1\nt1\n0\n0\nt1^3 - t1\n0\n',
     'section [matrix D] near line 18: line 6: trailing data past 4 entries'),
    ('diag-single', 't1^3 - t1\n', 't1^3 - t2\n',
     'section [matrix D] near line 18: line 5: column 8: unknown variable t2 (nvars=1)'),
    ('diag-single', '[matrix D]\n2 2 1\n', '[matrix D]\n2 2 2\n',
     'section [matrix D]: expected nvars 1, got 2'),
    ('diag-single', '[matrix D]\n2 2 1\nt1\n0\n0\nt1^3 - t1\n', '[matrix D]\n1 1 1\nt1\n',
     'section [matrix D]: expected 2x2, got 1x1'),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt1^2\n1\n',
     'section [poly w] near line 24 must hold exactly one line'),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt1^\n',
     'line 25: column 4: expected an integer exponent'),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt\uff11^2\n',
     "line 25: column 1: unexpected character 't'"),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt\u0661^2\n',
     "line 25: column 1: unexpected character 't'"),
    ('diag-single', '[poly w]\nt1^2\n', '[poly w]\nt1^\uff12\n',
     "line 25: column 4: unexpected character '\uff12'"),
    ('diag-bundle.out', 'branches 3\n', 'branches 1000000000000\n',
     'missing section [matrix D_4]'),
    ('diag-bundle.out', '1 1 1/1\n', '1 1\n',
     "line 28: trace lines are 'i j num/den', got '1 1'"),
    ('diag-bundle.out', '1 1 1/1\n', 'one 1 1/1\n',
     "line 28: bad pivot indices in 'one 1 1/1'"),
    ('diag-bundle.out', '1 1 1/1\n', '\uff11 1 1/1\n',
     "line 28: bad pivot indices in '\uff11 1 1/1'"),
    ('diag-bundle.out', '1 1 1/1\n', '1 0_1 1/1\n',
     "line 28: bad pivot indices in '1 0_1 1/1'"),
    ('diag-bundle.out', '1 1 1/1\n', '1 1 one\n',
     "line 28: bad scale 'one', expected num/den"),
    ('diag-bundle.out', '1 1 1/1\n', '1 1 1/0\n',
     'line 28: zero denominator in scale'),
    ('diag-bundle.out', '1 2 2/1\n', '2 1 2/1\n',
     'line 50: pivot pair (2,1) must satisfy 1 <= i <= j'),
    ('diag-bundle.out', '1 1 1/1\n', '1 1 -1/1\n',
     'line 28: pivot scale must be positive'),
    ('diag-bundle.out', '1 1 1/1\n', '1 1 2/1\n',
     'line 28: pivot (1,1) has scale 1, got 2/1'),
    ('diag-bundle.out', '1 2 2/1\n', '1 2 1/1\n',
     'line 50: pivot (1,2) has scale 2, got 1/1'),
    ('diag-bundle.out', '1 1 1/1\n', '1 1 2/2\n',
     'line 28: pivot (1,1) has scale 1, got 2/2'),
    ('diag-bundle.out', '1 2 2/1\n', '1 2 4/2\n',
     'line 50: pivot (1,2) has scale 2, got 4/2'),
    ('diag-bundle.out', '[trace 1]\n1 1 1/1\n', '[trace 1]\n1 99 2/1\n5 7 2/1\n8 8 1/1\n9 9 1/1\n',
     'section [trace 1]: 4 pivots for dim 2, at most 1 fit'),
    ('diag-bundle.out', '[trace 1]\n1 1 1/1\n', '[trace 1]\n1 1 1/1\n1 1 1/1\n',
     'section [trace 1]: 2 pivots for dim 2, at most 1 fit'),
    ('diag-bundle.out', '[trace 2]\n1 2 2/1\n', '[trace 2]\n1 3 2/1\n',
     'section [trace 2]: pivot (1,3) outside its 2x2 block'),
    ('a3-bundle.out', '[trace 2]\n1 1 1/1\n1 2 2/1\n', '[trace 2]\n1 1 1/1\n1 3 2/1\n',
     'section [trace 2]: pivot (1,3) outside its 2x2 block'),
    ('membership.cert', '[indexset 2]\n1\n', '[indexset 2]\n1\n2\n',
     'section [indexset 2] near line 28 must hold exactly one line'),
    ('membership.cert', '[indexset 2]\n1\n', '[indexset 2]\none\n',
     "line 29: bad index set 'one'"),
    ('membership.cert', '[indexset 2]\n1\n', '[indexset 2]\n\uff11\n',
     "line 29: bad index set '\uff11'"),
    ('membership.cert', '[indexset 2]\n1\n', '[indexset 2]\n+1\n',
     "line 29: bad index set '+1'"),
    ('membership.cert', '[indexset 3]\n1 2\n', '[indexset 3]\n2 1\n',
     'line 43: index set must be ascending positive integers'),
    ('membership.cert', '[indexset 3]\n1 2\n', '[indexset 3]\n1 3\n',
     'section [indexset 3]: index exceeds generator count 2'),
    ('membership.cert', '[matrix generator_1]\n2 2 1\nt1\n0\n0\n1\n', '[matrix generator_1]\n1 2 1\nt1\n0\n',
     'section [matrix generator_1]: generators must be square'),
    ('membership.cert', '[matrix generator_2]\n2 2 1\n1\n0\n0\n-t1 + 1\n', '[matrix generator_2]\n1 1 1\n1\n',
     'section [matrix generator_2]: generators must share dimension'),
    ('membership.cert', '[matrix coeff_2_1]', '[matrix coeff_2_2]',
     'term 2 has no coefficient matrices'),
    ('membership.cert', 'terms 3\n', '',
     "meta section is missing key 'terms' for kind 'membership'"),
    ('diag-single', 'kind diag', 'kind wurst',
     "line 3: unknown certificate kind 'wurst'"),
    ('equiv.cert', 't1\n0\n0\n', 't1\n0\n1\n',
     'section [matrix subject_b]: second subject is not symmetric'),
    ('sos.cert', '[matrix Q_2]\n2 2 1\n1\nt1\n0\n1/2\n', '[matrix Q_2]\n1 1 1\n1\n',
     'section [matrix Q_2]: expected 2 columns, got 1'),
]


def test_pinned_source_verifies():
    a = parse_matrix((GOLDEN / "a.mat").read_text())
    kind, cert = parse_certificate(DIAG_SINGLE)
    assert kind == "diag" and diag_certificate_failures(a, cert) == []
    kind, bundle = parse_certificate(DIAG_BUNDLE)
    assert kind == "bundle" and bundle_certificate_failures(a, bundle) == []
    kind, pkg = parse_certificate(EQUIV)
    assert kind == "equiv" and equiv_witness_failures(a, pkg.subject_b, pkg.witness) == []


@pytest.mark.parametrize("name,old,new,message", MALFORMED)
def test_parse_error_messages(name, old, new, message):
    text = PINNED[name] if name in PINNED else (GOLDEN / name).read_text()
    assert old in text
    with pytest.raises(ParseError) as info:
        parse_certificate(text.replace(old, new, 1))
    assert str(info.value) == message


def test_parse_error_message_empty_file():
    with pytest.raises(ParseError) as info:
        parse_certificate("# comment only\n\n")
    assert str(info.value) == "empty certificate file"
