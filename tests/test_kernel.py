"""Tests for the integer product kernel, the congruence product and the
exponent budget.

Property tests use hypothesis with derandomized, bounded examples, so every
run sees the same cases.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiag import arith, certificates, diagonal, polymat
from polydiag.arith import (
    MAX_EXPONENT,
    Polynomial,
    _digits,
    _from_image,
    _image_bounds,
    _images,
    _pack,
    _unpacker,
    parse_polynomial,
    sum_of_products,
)
from polydiag.certificates import (
    DiagBundle,
    DiagCertificate,
    EquivWitness,
    ModuleMembershipCertificate,
    SosMatrixCertificate,
    bundle_certificate_failures,
    diag_certificate_failures,
    equiv_witness_failures,
    membership_failures,
    sos_matrix_failures,
    witness_from_diag_certificate,
)
from polydiag.cli import main
from polydiag.diagonal import block_step, diagonalization_bundle, single_path_diagonalize
from polydiag.errors import ExponentOverflow, InternalIdentityFailure, ParseError
from polydiag.polymat import PolyMatrix, T, _ImageContext, congruence_sum, identity_holds

from helpers import const_matrix, count_calls

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

NVARS = 2
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monomials = st.tuples(*[st.integers(0, 3)] * NVARS)
polys = st.dictionaries(monomials, coefficients, max_size=4).map(
    lambda terms: Polynomial(NVARS, terms)
)


def naive_product(p, q):
    """Exponent-tuple convolution on Fractions, independent of the kernel."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Polynomial(p.nvars, out)


def matrices(rows, cols, symmetric=False):
    def build(entries):
        if symmetric:
            grid = [[None] * cols for _ in range(rows)]
            it = iter(entries)
            for i in range(rows):
                for j in range(i, cols):
                    grid[i][j] = grid[j][i] = next(it)
            return PolyMatrix.from_rows(grid)
        return PolyMatrix(rows, cols, entries)

    count = rows * (rows + 1) // 2 if symmetric else rows * cols
    return st.lists(polys, min_size=count, max_size=count).map(build)


@BOUNDED
@given(st.lists(st.tuples(polys, polys), max_size=5))
def test_sum_of_products_equals_fold(pairs):
    fold = Polynomial.zero(NVARS)
    naive = Polynomial.zero(NVARS)
    for a, b in pairs:
        fold = fold + a * b
        naive = naive + naive_product(a, b)
    got = sum_of_products(NVARS, pairs)
    assert got == fold == naive
    assert all(isinstance(c, Fraction) and c for c in got.terms.values())


@BOUNDED
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(matrices(n, n, symmetric=True), matrices(2, n))
))
def test_congruence_symmetric_matches_plain_product(case):
    m, x = case
    assert congruence_sum(2, NVARS, [(x, m)]) == x @ m @ x.transpose()


@BOUNDED
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, n))))
def test_congruence_general_matches_plain_product(case):
    m, x = case
    assert congruence_sum(x.rows, NVARS, [(x, m)]) == x @ m @ x.transpose()


def test_packed_keys_round_trip_at_field_edge():
    edge = (1 << 30) - 1
    for exps in ((edge,), (edge, 0), (0, edge), (edge, edge, edge), (edge, 1, 0, edge)):
        assert _unpacker(len(exps))(_pack(exps)) == exps
    with pytest.raises(ExponentOverflow):
        _pack((0, 1 << 30))


def test_product_at_field_edge_is_exact():
    half = 1 << 29
    t = Polynomial.variable(2, 1)
    s = Polynomial.variable(2, 2)
    p = Polynomial(2, {(half, half - 1): 3})
    q = Polynomial(2, {(half - 1, half): Fraction(1, 2)})
    assert (p * q).terms == {((1 << 30) - 1, (1 << 30) - 1): Fraction(3, 2)}
    assert ((p + t) * (q + s)) == sum_of_products(2, [(p, q), (p, s), (t, q), (t, s)])


def test_exponent_overflow_is_a_value_error():
    half = Polynomial(1, {(1 << 29,): 1})
    with pytest.raises(ExponentOverflow):
        half * half
    big = Polynomial(1, {(1 << 30,): 1})
    with pytest.raises(ValueError):
        big * Polynomial.one(1)


def test_constant_division_rescales():
    """exact_div by a constant: the quotient, and the ExponentOverflow that
    long division raises at the highest offending term, message and all."""
    p = Polynomial(2, {(1 << 30, 0): 1, (0, (1 << 30) + 1): 1, (1, 1): 2})
    q = Polynomial(1, {(5,): 1, ((1 << 30) + 2,): 4, (1 << 30,): 1})
    for dividend, exps in ((p, "(0, 1073741825)"), (q, "(1073741826,)")):
        for divisor in (1, 3, Fraction(-2, 3), Polynomial.const(dividend.nvars, 7)):
            with pytest.raises(ExponentOverflow) as info:
                dividend.exact_div(divisor)
            assert str(info.value) == f"remainder exponent {exps} is not below 2^30"
    r = parse_polynomial("3/4*t1^2*t2 - 6*t2 + 9/2", 2)
    for c in (1, -1, 3, Fraction(-9, 8), Fraction(1, 6)):
        assert r.exact_div(c) * c == r
        assert r.exact_div(Polynomial.const(2, c)) == r * Fraction(1, c)
    with pytest.raises(ZeroDivisionError):
        r.exact_div(0)
    with pytest.raises(TypeError):
        r.exact_div("t1")


def test_from_image_inverts_images():
    """Balanced base-2^beta digits give back every one-variable polynomial
    whose scaled coefficients stay below 2^(beta-1), the least such beta
    included."""
    rng = random.Random(22)
    for k in range(300):
        terms = {(rng.randint(0, 8),): Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                 for _ in range(rng.randint(0, 5))}
        if k % 3 == 0:  # a coefficient at the top of its digit range
            terms[(rng.randint(0, 8),)] = (1 << rng.randint(1, 70)) - 1
        p = Polynomial(1, terms)
        lcm, bound, _degree, forms = _image_bounds([p])
        beta = bound.bit_length() + 1
        for b in (beta, beta + 7):
            assert _from_image(_images(forms, lcm, b)[0], b, lcm) == p
            assert _from_image(-_images(forms, lcm, b)[0], b, lcm) == -p


def _edge_integer(rng, beta, shape):
    """A signed integer whose balanced base-2^beta digits take one shape."""
    half = 1 << (beta - 1)
    count = rng.randint(1, max(1, 3000 // beta))
    if shape == "random":
        return rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 3000))
    if shape == "top":  # digits at the ends of [-2^(beta-1), 2^(beta-1)), and one past
        ends = (-half, half - 1, half, -half - 1)
        digits = [rng.choice(ends) for _ in range(count)]
    elif shape == "sparse":  # mostly zero digits, zero runs at both ends
        digits = [rng.choice((0, 0, 0, rng.randint(-half, half - 1))) for _ in range(count)]
        digits = [0] * rng.randint(0, 3) + digits + [0] * rng.randint(0, 3)
    else:  # small: one or two digits
        return rng.randint(-(1 << (2 * beta)), 1 << (2 * beta))
    return sum(d << (beta * k) for k, d in enumerate(digits))


def test_from_image_inverts_images_on_every_integer():
    """Every integer is the image at 2^beta of the one polynomial that
    _from_image reads off it, whatever its size: den times that polynomial
    has value's balanced digits, each in [-2^(beta-1), 2^(beta-1)), as
    coefficients, and _digits' l1 is their absolute sum.  The producers'
    seeded checks rest on this: a walk integer is the image of the
    polynomial emitted from it."""
    rng = random.Random(23)
    shapes = ("random", "top", "sparse", "small")
    for k in range(400):
        beta = rng.choice((2, 3, 64)) if k % 4 == 0 else rng.randint(2, 64)
        den = 1 if k % 2 else rng.randint(2, 10**9)
        value = _edge_integer(rng, beta, shapes[k % 4])
        for v in (value, -value, 0):
            p = _from_image(v, beta, den)
            assert _images([p._form], den, beta) == [v]
            pairs, l1 = _digits(v, beta)
            assert p * den == Polynomial(1, {(e,): c for e, c in pairs})
            assert all(-(1 << (beta - 1)) <= c < 1 << (beta - 1) and c for _e, c in pairs)
            assert l1 == sum(abs(c) for _e, c in pairs)
            assert [e for e, _c in pairs] == sorted({e for e, _c in pairs}, reverse=True)


def sympy_expr(sympy, p):
    return sympy.sympify(str(p).replace("^", "**"))


def rational_poly(rng, nvars, max_deg=4, max_terms=5):
    return Polynomial(nvars, {
        tuple(rng.randint(0, max_deg) for _ in range(nvars)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(rng.randint(0, max_terms))
    })


def test_sympy_differential_products():
    sympy = pytest.importorskip("sympy")
    expr = lambda p: sympy_expr(sympy, p)
    rng = random.Random(7)
    for _ in range(40):
        p, q, r = (rational_poly(rng, 2) for _ in range(3))
        got = sum_of_products(2, [(p, q), (q, r)])
        assert sympy.expand(expr(got) - expr(p) * expr(q) - expr(q) * expr(r)) == 0


def test_sympy_differential_exact_div():
    # one polynomial is a Groebner basis of its ideal, so sympy's remainder
    # is zero exactly when the divisor divides, whatever the monomial order
    sympy = pytest.importorskip("sympy")
    expr = lambda p: sympy_expr(sympy, p)
    rng = random.Random(11)
    divisible = 0
    for k in range(60):
        nvars = 1 + k % 3
        gens = sympy.symbols(f"t1:{nvars + 1}")
        p, q = rational_poly(rng, nvars, 3, 4), rational_poly(rng, nvars, 2, 3)
        if q.is_zero():
            continue
        f = p * q + (rational_poly(rng, nvars, 2, 2) if k % 2 else 0)
        quot, rem = sympy.div(expr(f), expr(q), *gens)
        if rem == 0:
            divisible += 1
            assert sympy.expand(expr(f.exact_div(q)) - quot) == 0
        else:
            with pytest.raises(ValueError, match="does not divide"):
                f.exact_div(q)
    assert divisible > 30


def test_sympy_differential_determinant():
    sympy = pytest.importorskip("sympy")
    expr = lambda p: sympy_expr(sympy, p)
    rng = random.Random(13)
    for k in range(24):
        n, nvars = 1 + k % 4, 1 + k % 2
        a = PolyMatrix(n, n, [rational_poly(rng, nvars, 2, 3) for _ in range(n * n)])
        if k % 5 == 4:  # a repeated row: determinant zero
            a = PolyMatrix.from_rows([a.row(0), *[a.row(i) for i in range(n - 1)]])
        m = sympy.Matrix(n, n, [expr(p) for p in a.entries])
        assert sympy.expand(expr(a.determinant()) - m.det(method="berkowitz")) == 0


# -- validation and the exponent budget ---------------------------------------


def test_constructor_rejects_string_exponent():
    with pytest.raises(ValueError, match="nonnegative integers"):
        Polynomial(1, {("2",): 1})


def test_constructor_rejects_bool_exponent():
    with pytest.raises(ValueError, match="nonnegative integers"):
        Polynomial(1, {(True,): 1})


def test_parse_exponent_budget():
    assert parse_polynomial(f"t1^{MAX_EXPONENT}", 1).degree() == MAX_EXPONENT
    for bad in (f"t1^{MAX_EXPONENT + 1}", f"t1^{MAX_EXPONENT}*t1", "t2^10000000"):
        with pytest.raises(ParseError, match="exceeds the maximum"):
            parse_polynomial(bad, 2)


def test_cli_refuses_huge_exponent_fast(tmp_path, capsys):
    path = tmp_path / "huge.mat"
    path.write_text("1 1 1\nt1^10000000\n")
    start = time.perf_counter()
    assert main(["psd-grid", "--grid-count", "3", str(path)]) == 1
    assert main(["diagonalize", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the maximum" in capsys.readouterr().err


# -- the implied reverse products ----------------------------------------------


def test_vacuous_certificate_still_checks_reverse_product():
    zero2 = const_matrix([[0, 0], [0, 0]])
    cert = DiagCertificate(
        const_matrix([[0, 1], [0, 0]]),
        const_matrix([[1, 0], [0, 0]]),
        zero2,
        Polynomial.zero(1),
    )
    assert diag_certificate_failures(zero2, cert) == ["X_minus*X_plus = w*I"]


def test_zero_z_witness_still_checks_reverse_product():
    zero2 = const_matrix([[0, 0], [0, 0]])
    one = Polynomial.one(1)
    wit = EquivWitness(
        one, (one,), one, (one,), Polynomial.zero(1),
        const_matrix([[1, 0], [0, 0]]),
        const_matrix([[0, 1], [0, 0]]),
    )
    assert equiv_witness_failures(zero2, zero2, wit) == ["x_plus*x_minus = z*I"]


def all_identity_failures(a, cert):
    """Every diag identity checked with plain products, none skipped."""
    w_id = PolyMatrix.identity(a.rows, a.nvars) * cert.w
    out = []
    if cert.X_plus @ cert.X_minus != w_id:
        out.append("X_plus*X_minus = w*I")
    if cert.X_minus @ cert.X_plus != w_id:
        out.append("X_minus*X_plus = w*I")
    if not cert.D.is_diagonal():
        out.append("D is diagonal")
    if cert.D != cert.X_minus @ a @ cert.X_minus.transpose():
        out.append("D = X_minus*A*X_minus^t")
    if (cert.w * cert.w) * a != cert.X_plus @ cert.D @ cert.X_plus.transpose():
        out.append("w^2*A = X_plus*D*X_plus^t")
    return out


def subject(rows, nvars):
    return PolyMatrix.from_rows([[parse_polynomial(s, nvars) for s in row] for row in rows])


SUBJECT = subject((("t1", "1", "0"), ("1", "t1^2", "t1"), ("0", "t1", "2")), 1)
GOOD = single_path_diagonalize(SUBJECT)
SUBJECT_2VARS = subject((("t1", "t2", "0"), ("t2", "t1*t2", "1"), ("0", "1", "t2^2")), 2)
GOOD_2VARS = single_path_diagonalize(SUBJECT_2VARS)
# the (1,2) pivot's corner t1 - 2*t1 + t1 vanishes: a vacuous w = 0 branch
VACUOUS_SUBJECT = subject((("t1", "-t1", "1"), ("-t1", "t1", "0"), ("1", "0", "1")), 1)
VACUOUS_BUNDLE = diagonalization_bundle(VACUOUS_SUBJECT)


def tampered(cert, part, index, delta_text):
    """cert with delta added to entry index of part (or to w)."""
    delta = parse_polynomial(delta_text, cert.w.nvars)
    fields = {"X_plus": cert.X_plus, "X_minus": cert.X_minus, "D": cert.D, "w": cert.w}
    if part == "w":
        fields["w"] = fields["w"] + delta
    else:
        entries = list(fields[part].entries)
        entries[index] = entries[index] + delta
        fields[part] = PolyMatrix(3, 3, entries)
    return DiagCertificate(fields["X_plus"], fields["X_minus"], fields["D"], fields["w"])


@BOUNDED
@given(
    st.sampled_from(("X_plus", "X_minus", "D", "w")),
    st.integers(0, 8),
    st.sampled_from(("1", "t1", "-1/2*t1^2", "0")),
    st.integers(0, 15),
)
def test_failure_lists_match_full_check(part, index, delta_text, branch):
    for a, good in ((SUBJECT, GOOD), (SUBJECT_2VARS, GOOD_2VARS)):
        cert = tampered(good, part, index, delta_text)
        assert diag_certificate_failures(a, cert) == all_identity_failures(a, cert)
    certs = [cert for cert, _trace in VACUOUS_BUNDLE.branches]
    assert len(certs) == 16 and certs[0].w.is_zero()
    certs[branch] = tampered(certs[branch], part, index, delta_text)
    traces = [trace for _cert, trace in VACUOUS_BUNDLE.branches]
    expected = [
        f"branch {k}: {f}"
        for k, cert in enumerate(certs, start=1)
        for f in all_identity_failures(VACUOUS_SUBJECT, cert)
    ]
    bundle = DiagBundle(zip(certs, traces))
    assert bundle_certificate_failures(VACUOUS_SUBJECT, bundle) == expected


def sparse_reference(check, *args):
    """check(*args) with every identity decided by sparse products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polymat, "_IMAGE_BITS_CAP", 0)
        return check(*args)


def test_image_collision_is_rejected():
    # 2^beta*t1^k - t1^(k+1) vanishes at t1 = 2^beta, for the beta the
    # decider picks for the honest certificate; adding it raises the bound
    with pytest.MonkeyPatch.context() as mp:
        images = count_calls(mp, "_images", (polymat,))
        assert diag_certificate_failures(SUBJECT, GOOD) == []
    betas = {beta for _forms, _lcm, beta in images}
    assert betas
    for beta in betas:
        for k in (0, 3):
            delta = f"{2**beta}*t1^{k} - t1^{k + 1}"
            assert _images([parse_polynomial(delta, 1)._form], 1, beta) == [0]
            for part, index in (("D", 0), ("X_plus", 4), ("X_minus", 3), ("w", 0)):
                bad = tampered(GOOD, part, index, delta)
                failures = diag_certificate_failures(SUBJECT, bad)
                assert failures, (beta, k, part)
                assert failures == all_identity_failures(SUBJECT, bad)
                assert failures == sparse_reference(diag_certificate_failures, SUBJECT, bad)


def test_seeds_decide_only_identities_all_of_whose_factors_they_hold():
    """Seeds at a beta below an identity's own bound do not decide it: a
    difference such as 2^beta - t1 vanishes there.  Nor do seeds decide an
    identity with a factor that has none, at any beta.  Either way every
    identity is decided afresh, and the failures are those of the full
    products."""
    for beta, unseeded in ((8, None), (40, None), (400, "X_minus"), (400, "w")):
        for part, index in (("D", 0), ("X_plus", 4), ("X_minus", 3), ("w", 0)):
            bad = tampered(GOOD, part, index, f"{2**beta} - t1")
            images = _ImageContext(beta)
            for name in ("subject", "X_plus", "X_minus", "D", "w"):
                f = SUBJECT if name == "subject" else getattr(bad, name)
                entries = f.entries if isinstance(f, PolyMatrix) else (f,)
                lcm, bound, degree, forms = _image_bounds(entries)
                if name != unseeded:
                    images.seed(f, lcm, bound, degree, _images(forms, lcm, beta))
            failures = diag_certificate_failures(SUBJECT, bad, images)
            assert failures and failures == all_identity_failures(SUBJECT, bad), (beta, part)


RATIONAL_SUBJECT = subject(
    (("1/2*t1", "1/3", "0"), ("1/3", "t1^2 - 2/5", "2/5*t1"), ("0", "2/5*t1", "3/7")), 1
)
GOOD_RATIONAL = single_path_diagonalize(RATIONAL_SUBJECT)


@BOUNDED
@given(
    st.sampled_from(("X_plus", "X_minus", "D", "w")),
    st.integers(0, 8),
    st.sampled_from(("1/2", "-1/3*t1", "5/7*t1^2", "0")),
)
def test_rational_failure_lists_match_sparse_reference(part, index, delta_text):
    entries = GOOD_RATIONAL.X_plus.entries + GOOD_RATIONAL.X_minus.entries
    assert any(c.denominator > 1 for p in entries for c in p.terms.values())
    cert = tampered(GOOD_RATIONAL, part, index, delta_text)
    failures = diag_certificate_failures(RATIONAL_SUBJECT, cert)
    assert failures == all_identity_failures(RATIONAL_SUBJECT, cert)
    assert failures == sparse_reference(diag_certificate_failures, RATIONAL_SUBJECT, cert)


@BOUNDED
@given(
    st.sampled_from(("X_plus", "X_minus", "D", "w")),
    st.integers(0, 8),
    st.sampled_from(("1", "t1", "-1/2*t1^2", "0")),
)
def test_vacuous_branches_match_sparse_reference(part, index, delta_text):
    vacuous = [cert for cert, _trace in VACUOUS_BUNDLE.branches if cert.w.is_zero()]
    assert vacuous
    for cert in vacuous:
        bad = tampered(cert, part, index, delta_text)
        failures = diag_certificate_failures(VACUOUS_SUBJECT, bad)
        assert failures == sparse_reference(diag_certificate_failures, VACUOUS_SUBJECT, bad)


polys1 = st.dictionaries(st.tuples(st.integers(0, 4)), coefficients, max_size=4).map(
    lambda terms: Polynomial(1, terms)
)


def matrices1(rows, cols):
    return st.lists(polys1, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: PolyMatrix(rows, cols, entries)
    )


def identity_cases(nvars):
    poly = polys1 if nvars == 1 else polys
    matrix = matrices1 if nvars == 1 else matrices
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda nk: st.tuples(
            st.just(nvars), poly, poly, matrix(nk[0], nk[1]), matrix(nk[1], nk[1]),
            matrix(nk[0], nk[1]), matrix(nk[0], nk[0]), st.booleans(),
        )
    )


def refuse(*_args):
    raise AssertionError("a small one-variable identity went to the sparse products")


def refuse_sparse_identities(mp):
    """polymat.sum_of_products refused while the verifiers' identity_holds
    runs; the products around it (a generator product, block_step's
    elimination) go through."""
    deciding = []
    holds, product = polymat.identity_holds, polymat.sum_of_products

    def guarded_holds(*args):
        deciding.append(args)
        try:
            return holds(*args)
        finally:
            deciding.pop()

    def guarded_product(*args):
        if deciding:
            refuse()
        return product(*args)

    for module in (certificates, diagonal):
        mp.setattr(module, "identity_holds", guarded_holds)
    mp.setattr(polymat, "sum_of_products", guarded_product)


@settings(BOUNDED, max_examples=40)
@given(st.sampled_from((1, 2)).flatmap(identity_cases))
def test_identity_holds_matches_sparse_products(case):
    # the plain products are the reference, in one variable and in two
    nvars, c, e, x, m, y, delta, perturb = case
    xt, yt, ms = x.transpose(), y.transpose(), m + m.transpose()
    total = c * (x @ m @ xt) + x @ ms @ xt + x @ m @ m @ xt + y @ yt + (e * c) * (y @ xt)
    z = total + delta if perturb else total
    s = c * c + e * e + delta[0, 0] if perturb else c * c + e * e
    with pytest.MonkeyPatch.context() as mp:
        if nvars == 1:
            mp.setattr(polymat, "sum_of_products", refuse)
        lhs = [(c, x, m, T), (x, ms, T), (x, m, m, T), (y, T), (e, y, c, xt)]
        assert identity_holds(lhs, [(z,)]) == (total == z)
        assert identity_holds([(z,)], lhs) == (total == z)
        assert identity_holds([(c, c), (e, e)], [(s,)]) == (c * c + e * e == s)
        assert identity_holds([(c, e, c)], [(c * c * e,)])
        assert identity_holds([(s,)], []) == s.is_zero()
        assert identity_holds([], [(z,)]) == z.is_zero()
        assert identity_holds([(c, x, m, T), (-c, x, m, T)], [])
        assert identity_holds([], [])


def test_transpose_mark_bounds_by_the_columns():
    # x*x^t = 8*t1^2 for the 1x8 row x = (t1, ..., t1); a bound that took x's
    # one row for x^t's eight would pick beta = 3, where t1^3 and 8*t1^2 agree
    x = PolyMatrix(1, 8, [parse_polynomial("t1", 1)] * 8)
    assert identity_holds([(subject((("8*t1^2",),), 1),)], [(x, T)])
    assert not identity_holds([(subject((("t1^3",),), 1),)], [(x, T)])


@pytest.mark.parametrize("nvars", (1, 2))
def test_empty_sums_are_zero(nvars):
    # no squares and no module terms: each certificate holds for a zero subject only
    no_squares = SosMatrixCertificate(Polynomial.one(nvars), ())
    no_terms = ModuleMembershipCertificate((), ())
    generators = [PolyMatrix.identity(2, nvars)]
    zero, nonzero = PolyMatrix.zeros(2, 2, nvars), subject((("t1", "1"), ("1", "0")), nvars)
    for run in (lambda check, *args: check(*args), sparse_reference):
        assert run(sos_matrix_failures, zero, no_squares) == []
        assert run(sos_matrix_failures, nonzero, no_squares) == ["c^2*A = sum(Q^t*Q)"]
        assert run(membership_failures, zero, generators, no_terms) == []
        assert run(membership_failures, nonzero, generators, no_terms) == [
            "element = sum(y^t*G_idx*y)"
        ]


def bump(mat, index, delta_text, mirror=False):
    """mat with delta added to entry index, and to its mirror if asked."""
    delta = parse_polynomial(delta_text, mat.nvars)
    i, j = divmod(index, mat.cols)
    entries = list(mat.entries)
    for cell in {index, j * mat.cols + i} if mirror else {index}:
        entries[cell] = entries[cell] + delta
    return PolyMatrix(mat.rows, mat.cols, entries)


def block_step_failures(a, delta_text):
    """block_step's self-check on a, its eliminated entry (1, 2) bumped by delta."""

    def bent(rows, k, prev, symmetric=False):
        polymat._bareiss_step(rows, k, prev, symmetric)
        rows[1][2] = rows[1][2] + parse_polynomial(delta_text, prev.nvars)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagonal, "_bareiss_step", bent)
        try:
            block_step(a)
        except InternalIdentityFailure as exc:
            return str(exc)
    return ""


SOS_C = parse_polynomial("t1 + 1/2", 1)
SOS_FACTORS = (subject((("t1", "1/2"),), 1), subject((("1", "-t1^2"), ("2", "t1")), 1))
SOS_SUBJECT = congruence_sum(2, 1, [(q.transpose(), None) for q in SOS_FACTORS])
GENERATORS = (subject((("t1", "0"), ("0", "1")), 1), subject((("1", "0"), ("0", "t1^2 + 1")), 1))
MEMBERSHIP = ModuleMembershipCertificate(
    ((), (1,), (1, 2)),
    ((subject((("1", "t1"), ("0", "1")), 1),), (subject((("t1", "0"), ("1/3", "2")), 1),), ()),
)
ELEMENT = congruence_sum(
    2, 1, [
        (MEMBERSHIP.coefficients[0][0].transpose(), None),
        (MEMBERSHIP.coefficients[1][0].transpose(), GENERATORS[0]),
    ],
)


def one_variable_verifications():
    """(check, args) for every verifier on honest and tampered one-variable inputs."""
    deltas = ("0", "1", "-1/2*t1", "t1^2")
    for part in ("X_plus", "X_minus", "D", "w"):
        for index in (0, 4, 7):
            for d in deltas:
                yield diag_certificate_failures, (SUBJECT, tampered(GOOD, part, index, d))
    branches = VACUOUS_BUNDLE.branches
    for k in (0, 1, 5):
        for part in ("X_minus", "D", "w"):
            cert, trace = branches[k]
            bent = (tampered(cert, part, 4, "t1"), trace)
            bundle = DiagBundle(branches[:k] + (bent,) + branches[k + 1 :])
            yield bundle_certificate_failures, (VACUOUS_SUBJECT, bundle)
    for a1, a2, good in WITNESSES[::2]:  # the one-variable ones
        for part in ("x_plus", "x_minus", "z", "s1", "s2", "subject_b"):
            for index in range(a2.rows**2):
                yield equiv_witness_failures, (a1, *tampered_witness(a2, good, part, index, "t1"))
    sos = SosMatrixCertificate(SOS_C, SOS_FACTORS)
    for d in deltas:  # a delta of 0 leaves the input honest
        yield sos_matrix_failures, (bump(SOS_SUBJECT, 1, d, mirror=True), sos)
        yield sos_matrix_failures, (SOS_SUBJECT, replace(sos, c=SOS_C + parse_polynomial(d, 1)))
        bent = (SOS_FACTORS[0], bump(SOS_FACTORS[1], 2, d))
        yield sos_matrix_failures, (SOS_SUBJECT, replace(sos, factors=bent))
        yield membership_failures, (bump(ELEMENT, 3, d), GENERATORS, MEMBERSHIP)
        ys = ((bump(MEMBERSHIP.coefficients[0][0], 1, d),),) + MEMBERSHIP.coefficients[1:]
        yield membership_failures, (ELEMENT, GENERATORS, replace(MEMBERSHIP, coefficients=ys))
        yield block_step_failures, (SUBJECT, d)


def test_over_cap_identity_takes_sparse_path():
    big = subject(((f"t1^4000 + {10**300}", "1", "0"), ("1", "t1", "1"), ("0", "1", "2")), 1)
    good = single_path_diagonalize(big)
    with pytest.MonkeyPatch.context() as mp:
        images = count_calls(mp, "_images", (polymat,))
        assert diag_certificate_failures(big, good) == []
        for part, index in (("D", 0), ("X_plus", 3), ("w", 0)):
            bad = tampered(good, part, index, "t1^2")
            failures = diag_certificate_failures(big, bad)
            assert failures and failures == all_identity_failures(big, bad)
    assert images == []
    # below the cap, images and sparse products give every verifier the
    # same failure list, in the same order
    cases = list(one_variable_verifications())
    with pytest.MonkeyPatch.context() as mp:
        refuse_sparse_identities(mp)
        on_images = [check(*args) for check, args in cases]
    assert on_images == [sparse_reference(check, *args) for check, args in cases]
    failing = {check.__name__ for (check, _args), failures in zip(cases, on_images) if failures}
    assert failing == {
        "diag_certificate_failures", "bundle_certificate_failures", "equiv_witness_failures",
        "sos_matrix_failures", "membership_failures", "block_step_failures",
    }
    assert on_images[0] == [] and block_step_failures(SUBJECT, "0") == ""


def all_witness_failures(a1, a2, wit):
    """Every witness identity checked with plain products, none skipped."""
    z_id = PolyMatrix.identity(a1.rows, a1.nvars) * wit.z
    out = []
    for name, s, squares in (("s1", wit.s1, wit.s1_squares), ("s2", wit.s2, wit.s2_squares)):
        if s != sum((f * f for f in squares), Polynomial.zero(a1.nvars)):
            out.append(f"{name} = sum of its stored squares")
    out += [f"{name} is nonzero" for name, s in (("s1", wit.s1), ("s2", wit.s2)) if s.is_zero()]
    if wit.x_minus @ wit.x_plus != z_id:
        out.append("x_minus*x_plus = z*I")
    if wit.x_plus @ wit.x_minus != z_id:
        out.append("x_plus*x_minus = z*I")
    if a1 * wit.s1 != (wit.x_plus @ a2 @ wit.x_plus.transpose()) * wit.s2:
        out.append("s1*a1 = s2*x_plus*a2*x_plus^t")
    return out


ZERO2 = const_matrix([[0, 0], [0, 0]])
# (a1, a2, witness for a1 ~ a2): A ~ D of two single paths, and a witness
# whose z is zero, so that the reverse product is the one that can fail
WITNESSES = (
    (SUBJECT, GOOD.D, witness_from_diag_certificate(GOOD)),
    (SUBJECT_2VARS, GOOD_2VARS.D, witness_from_diag_certificate(GOOD_2VARS)),
    (
        ZERO2,
        ZERO2,
        EquivWitness(
            Polynomial.one(1), (Polynomial.one(1),), Polynomial.one(1), (Polynomial.one(1),),
            Polynomial.zero(1), const_matrix([[1, 0], [0, 0]]), const_matrix([[0, 1], [0, 0]]),
        ),
    ),
)


def tampered_witness(a2, wit, part, index, delta_text):
    """(a2, wit) with delta added to one part: entry index of x_plus or
    x_minus, both mirrored entries of a2 (subject_b), so that it stays
    symmetric, or the polynomial z, s1 or s2."""
    n = a2.rows
    delta = parse_polynomial(delta_text, a2.nvars)
    i, j = divmod(index, n)

    def bump(mat, cells):
        entries = list(mat.entries)
        for cell in cells:
            entries[cell] = entries[cell] + delta
        return PolyMatrix(n, n, entries)

    if part == "subject_b":
        return bump(a2, {i * n + j, j * n + i}), wit
    if part in ("x_plus", "x_minus"):
        return a2, replace(wit, **{part: bump(getattr(wit, part), {i * n + j})})
    return a2, replace(wit, **{part: getattr(wit, part) + delta})


@BOUNDED
@given(
    st.sampled_from(("x_plus", "x_minus", "z", "s1", "s2", "subject_b")),
    st.sampled_from(("1", "-1", "t1", "-1/2*t1^2", "0")),  # -1 zeroes an s of 1
)
def test_witness_failure_lists_match_full_check(part, delta_text):
    for a1, a2, good in WITNESSES:
        for index in range(a2.rows**2):
            b, wit = tampered_witness(a2, good, part, index, delta_text)
            assert equiv_witness_failures(a1, b, wit) == all_witness_failures(a1, b, wit)


# (sum_of_products calls, term pairs) of two-variable verifications: as the
# three product loops that polymat._sum_of_terms replaced issued them, and
# as the routine issues them now; it may issue fewer, never more
SPARSE_PRODUCTS = {  # name: (before, now)
    "diag": ((24, 47), (24, 47)),
    "diag, D tampered": ((49, 115), (49, 115)),
    "bundle": ((432, 2990), (432, 2990)),
    "equiv": ((44, 108), (44, 95)),
}


def test_sparse_verifications_issue_no_more_products(monkeypatch):
    issued = []
    product = polymat.sum_of_products

    def counted(nvars, pairs):
        pairs = list(pairs)
        issued.append(sum(len(p._form[1]) * len(q._form[1]) for p, q in pairs))
        return product(nvars, pairs)

    for module in (arith, polymat):
        monkeypatch.setattr(module, "sum_of_products", counted)
    d = GOOD_2VARS.D
    bent = replace(GOOD_2VARS, D=PolyMatrix(3, 3, (d[0, 0] + parse_polynomial("t1", 2),) + d.entries[1:]))
    bundle = DiagBundle(diagonalization_bundle(SUBJECT_2VARS).branches)
    witness = witness_from_diag_certificate(GOOD_2VARS)
    runs = {
        "diag": lambda: diag_certificate_failures(SUBJECT_2VARS, GOOD_2VARS),
        "diag, D tampered": lambda: diag_certificate_failures(SUBJECT_2VARS, bent),
        "bundle": lambda: bundle_certificate_failures(SUBJECT_2VARS, bundle),
        "equiv": lambda: equiv_witness_failures(SUBJECT_2VARS, GOOD_2VARS.D, witness),
    }
    for name, run in runs.items():
        issued.clear()
        failures = run()
        assert bool(failures) == (name == "diag, D tampered")
        (calls, pairs), now = SPARSE_PRODUCTS[name]
        assert (len(issued), sum(issued)) == now, name
        assert now[0] <= calls and now[1] <= pairs


def test_implied_third_identity_is_not_multiplied_out(monkeypatch):
    calls = count_calls(monkeypatch, "identity_holds", (certificates, diagonal))
    assert diag_certificate_failures(SUBJECT, GOOD) == []
    assert len(calls) == 2  # X_plus*X_minus = w*I and D = X_minus*A*X_minus^t
    calls.clear()
    bad = tampered(GOOD, "D", 0, "1")
    assert diag_certificate_failures(SUBJECT, bad) == [
        "D = X_minus*A*X_minus^t",
        "w^2*A = X_plus*D*X_plus^t",
    ]
    assert len(calls) == 3  # a failed identity: the third is reported too
    calls.clear()
    block_step(SUBJECT)
    assert len(calls) == 2  # X_plus*X_minus = alpha^2*I and Atilde = X_minus*A*X_minus^t
