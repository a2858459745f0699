"""Tests for matrix algebra over the polynomial ring."""

import random
from fractions import Fraction

import pytest

from polydiag.arith import MAX_NVARS, Polynomial, parse_polynomial
from polydiag.errors import ParseError
from polydiag.polymat import (
    PolyMatrix,
    format_matrix,
    parse_matrix,
)
from polydiag.positivity import eval_matrix

from helpers import (
    const_matrix,
    det_cofactor,
    psd_ldlt,
    rand_matrix,
    rand_poly,
    rand_symmetric,
)


def P(text, nvars=1):
    return parse_polynomial(text, nvars)


def M(rows, nvars=1):
    return PolyMatrix.from_rows([[P(s, nvars) for s in row] for row in rows])


# the 3x3 all-ones-up-to-sign matrix whose order-2 principal minors all vanish
VANISHING_MINORS = const_matrix([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])


def test_mul_identity():
    rng = random.Random(201)
    for _ in range(20):
        a = rand_matrix(rng, 3, 3, 2)
        eye = PolyMatrix.identity(3, 2)
        assert eye @ a == a
        assert a @ eye == a


def test_mul_single_entry():
    assert M([["t1"]]) @ M([["t1"]]) == M([["t1^2"]])


def test_mul_unitriangular_inverse():
    u = M([["1", "t1"], ["0", "1"]])
    v = M([["1", "-t1"], ["0", "1"]])
    assert u @ v == PolyMatrix.identity(2, 1)


def test_transpose_examples():
    eye = PolyMatrix.identity(3, 1)
    assert eye.transpose() == eye
    assert M([["0", "t1"], ["1", "0"]]).transpose() == M([["0", "1"], ["t1", "0"]])


def test_transpose_involution_random():
    rng = random.Random(202)
    for _ in range(50):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
        assert a.transpose().transpose() == a


def test_product_transpose_random():
    rng = random.Random(203)
    for _ in range(50):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = rand_matrix(rng, n, k, 2)
        b = rand_matrix(rng, k, m, 2)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_minor_2x2_by_hand():
    a = M([["1", "t1"], ["t1", "t1^2 + 1"]])
    assert a.minor((1, 2), (1, 2)) == P("1")


def test_minor_1x1_is_entry():
    rng = random.Random(204)
    a = rand_matrix(rng, 4, 4, 2)
    for k in range(1, 5):
        assert a.minor((k,), (k,)) == a[k - 1, k - 1]


def test_order2_principal_minors_can_all_vanish():
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert VANISHING_MINORS.minor(pair, pair).is_zero()


def test_minor_rejects_bad_indices():
    a = PolyMatrix.identity(3, 1)
    with pytest.raises(ValueError):
        a.minor((2, 1), (1, 2))
    with pytest.raises(ValueError):
        a.minor((1, 4), (1, 2))
    with pytest.raises(ValueError):
        a.minor((1,), (1, 2))
    with pytest.raises(ValueError):
        a.minor((0,), (1,))


def test_leading_principal_minors():
    a = M([["t1", "1"], ["1", "t1"]])
    assert a.leading_principal_minor(1) == P("t1")
    assert a.leading_principal_minor(2) == P("t1^2 - 1")
    assert VANISHING_MINORS.leading_principal_minor(3) == P("-4")
    with pytest.raises(ValueError):
        a.leading_principal_minor(0)
    with pytest.raises(ValueError):
        a.leading_principal_minor(3)


def test_determinant_examples():
    assert PolyMatrix.identity(4, 2).determinant() == Polynomial.one(2)
    d = PolyMatrix.diagonal([P("t1"), P("t1 + 1"), Polynomial.zero(1)])
    assert d.determinant().is_zero()
    assert VANISHING_MINORS.determinant() == P("-4")


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(205)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, rng.randint(1, 2))
        assert a.determinant() == det_cofactor(a)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        M([["t1", "1"]]).determinant()


def test_generic_rank_examples():
    assert PolyMatrix.zeros(3, 3, 1).generic_rank() == 0
    # rank 1: the rows are t*(t, 1) and 1*(t, 1)
    assert M([["t1^2", "t1"], ["t1", "1"]]).generic_rank() == 1
    assert VANISHING_MINORS.generic_rank() == 3


def test_generic_rank_congruence_invariant():
    rng = random.Random(206)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = rand_symmetric(rng, n, 2)
        rows = [
            [
                Polynomial.one(2)
                if i == j
                else (rand_poly(rng, 2) if i > j else Polynomial.zero(2))
                for j in range(n)
            ]
            for i in range(n)
        ]
        u = PolyMatrix.from_rows(rows)
        assert (u.transpose() @ a @ u).generic_rank() == a.generic_rank()


def test_polarization_identity():
    # 2(x^t a y + y^t a x) = (x+y)^t a (x+y) - (x-y)^t a (x-y)
    rng = random.Random(207)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = rand_symmetric(rng, n, 2)
        x = rand_matrix(rng, n, 1, 2)
        y = rand_matrix(rng, n, 1, 2)
        xt, yt = x.transpose(), y.transpose()
        lhs = 2 * (xt @ a @ y + yt @ a @ x)
        s, d = x + y, x - y
        rhs = s.transpose() @ a @ s - d.transpose() @ a @ d
        assert lhs == rhs


def test_congruence_preserves_pointwise_psd():
    # b^t (G^t G) b stays positive semidefinite at every rational point
    rng = random.Random(208)
    for _ in range(25):
        n = rng.randint(1, 3)
        g = rand_matrix(rng, rng.randint(1, 3), n, 1)
        b = rand_matrix(rng, n, n, 1)
        probe = b.transpose() @ (g.transpose() @ g) @ b
        for _ in range(4):
            pt = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),)
            assert psd_ldlt(eval_matrix(probe, pt))


def test_symmetry_and_diagonal_predicates():
    assert M([["t1", "1"], ["1", "0"]]).is_symmetric()
    assert not M([["t1", "1"], ["0", "t1"]]).is_symmetric()
    d = PolyMatrix.diagonal([P("t1"), P("2")])
    assert d.is_diagonal()
    assert d.diagonal_entries() == (P("t1"), P("2"))
    assert not M([["1", "t1"], ["0", "1"]]).is_diagonal()


def test_dimension_mismatch_rejected():
    a = PolyMatrix.identity(2, 1)
    b = PolyMatrix.identity(3, 1)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ PolyMatrix.identity(2, 2)


def test_getitem_bounds():
    a = PolyMatrix.identity(2, 1)
    assert a[0, 0] == Polynomial.one(1)
    with pytest.raises(IndexError):
        a[2, 0]
    with pytest.raises(IndexError):
        a[0, -1]


def test_format_parse_round_trip():
    rng = random.Random(209)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        assert parse_matrix(format_matrix(a)) == a


def test_parse_matrix_comments_and_blanks():
    text = "# subject\n\n2 2 1\nt1\n1\n\n1\nt1\n"
    assert parse_matrix(text) == M([["t1", "1"], ["1", "t1"]])
    assert parse_matrix("2 1 1\r\nt1\r1\n") == M([["t1"], ["1"]])


def test_parse_matrix_caps_nvars():
    assert parse_matrix(f"1 1 {MAX_NVARS}\nt{MAX_NVARS}\n").nvars == MAX_NVARS
    with pytest.raises(ParseError) as info:
        parse_matrix(f"# huge\n1 1 {MAX_NVARS + 1}\n1\n")
    assert str(info.value) == f"line 2: nvars {MAX_NVARS + 1} exceeds the maximum {MAX_NVARS}"


@pytest.mark.parametrize(
    "text,message",
    [
        ("2_0 1 1\n" + "1\n" * 20, "line 1: header must hold three integers, got '2_0 1 1'"),
        ("\uff12 1 1\n1\n1\n", "line 1: header must hold three integers, got '\uff12 1 1'"),
        ("1 1 +1\n1\n", "line 1: header must hold three integers, got '1 1 +1'"),
        ("1 1 1\nt\uff11\n", "line 2: column 1: unexpected character 't'"),
        ("1 1 1\nt\u0661\n", "line 2: column 1: unexpected character 't'"),
        ("1 1 1\n\uff11\n", "line 2: column 1: unexpected character '\uff11'"),
    ],
    ids=["separator", "fullwidth rows", "plus sign", "fullwidth var", "arabic-indic var", "fullwidth coefficient"],
)
def test_parse_matrix_takes_ascii_digits_only(text, message):
    with pytest.raises(ParseError) as info:
        parse_matrix(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 2 1\nt1\u20281\n", "expected 2 entries, file ends after 1"),
        ("1 1 1\n\f\nt1 +\n", "line 3: column 5: expected a term"),
    ],
    ids=["line separator inside a line", "form feed line"],
)
def test_parse_matrix_lines_break_at_newlines_only(text, message):
    with pytest.raises(ParseError) as info:
        parse_matrix(text)
    assert str(info.value) == message


def test_parse_matrix_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="empty"):
        parse_matrix("# nothing here\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("2 2\nt1\n1\n1\nt1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("2 2 x\nt1\n1\n1\nt1\n")
    with pytest.raises(ParseError, match="ends after 3"):
        parse_matrix("2 2 1\nt1\n1\n1\n")
    with pytest.raises(ParseError, match="line 6: trailing"):
        parse_matrix("2 2 1\nt1\n1\n1\nt1\n5\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix("2 2 1\nt1\nt9\n1\nt1\n")
