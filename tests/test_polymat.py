"""Tests for matrix algebra over the polynomial ring."""

import random
from fractions import Fraction

import pytest

from polydiag import polymat
from polydiag.arith import MAX_NVARS, Polynomial, parse_polynomial
from polydiag.errors import ParseError
from polydiag.polymat import (
    PolyMatrix,
    congruence_sum,
    format_matrix,
    parse_matrix,
)
from polydiag.positivity import eval_matrix

from helpers import (
    const_matrix,
    count_calls,
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


def test_congruence_sum_equals_summed_products():
    # the plain products, summed one term at a time, are the reference
    rng = random.Random(212)
    for _ in range(60):
        n, nvars = rng.randint(1, 3), rng.randint(1, 2)
        terms = []
        expected = PolyMatrix.zeros(n, n, nvars)
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, 3)
            x = rand_matrix(rng, n, k, nvars)
            m = rng.choice((None, rand_symmetric(rng, k, nvars), rand_matrix(rng, k, k, nvars)))
            terms.append((x, m))
            middle = PolyMatrix.identity(k, nvars) if m is None else m
            expected = expected + x @ middle @ x.transpose()
        assert congruence_sum(n, nvars, terms) == expected
    with pytest.raises(ValueError):
        congruence_sum(2, 1, [(M([["1", "t1"]]), None)])
    with pytest.raises(ValueError):
        congruence_sum(1, 1, [(M([["1", "t1"]]), M([["1", "t1"], ["1", "t1"], ["0", "0"]]))])


def test_bareiss_step_leaves_entries_of_two_zero_products(monkeypatch):
    # row 2 is zero and its lead too; in row 3 only (3,3) has a nonzero product
    rows = [[P(s) for s in row] for row in (("t1", "0", "1"), ("0", "0", "0"), ("1", "0", "t1"))]
    zero = rows[1][1]
    products = count_calls(monkeypatch, "sum_of_products", (polymat,))
    polymat._bareiss_step(rows, 0, P("1"), symmetric=True)
    assert len(products) == 1
    assert rows[1][1] is zero and rows[2][1].is_zero() and rows[1][2].is_zero()
    assert rows[2][2] == P("t1^2 - 1")


def test_symmetric_bareiss_step_reads_only_the_upper_triangle():
    """Zeros in the strict lower triangle leave every step's upper trailing
    block as on the full matrix, on ints and on Polynomials, also with the
    walk's identity block to the right."""
    rng = random.Random(2601)
    for nvars in (None, 1, 2):
        for _ in range(30):
            n = rng.randint(2, 4)
            if nvars is None:
                a = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        a[i][j] = a[j][i] = rng.randint(-9, 9)
                zero, prev = 0, 1
            else:
                a = [list(rand_symmetric(rng, n, nvars).row(i)) for i in range(n)]
                zero, prev = Polynomial.zero(nvars), Polynomial.one(nvars)
            wide = rng.random() < 0.5  # [A | I], as the walk eliminates it
            full = [row + [prev if i == j else zero for j in range(n)] * wide for i, row in enumerate(a)]
            upper = [[zero] * i + row[i:] for i, row in enumerate(full)]
            for k in range(n - 1):
                if not full[k][k]:
                    break
                polymat._bareiss_step(full, k, prev, symmetric=True)
                polymat._bareiss_step(upper, k, prev, symmetric=True)
                assert [row[i:] for i, row in enumerate(upper)] == [row[i:] for i, row in enumerate(full)]
                prev = full[k][k]


def test_matmul_takes_one_sum_of_products_per_entry(monkeypatch):
    """A @ B issues rows * cols sparse products and matches the entrywise
    sums of products, on rectangular, zero-entry and two-variable shapes."""
    rng = random.Random(2602)
    zero_row = PolyMatrix.from_rows([[P("0"), P("0"), P("0")], [P("t1"), P("0"), P("1 - t1")]])
    cases = [
        (rand_matrix(rng, 2, 3, 1), rand_matrix(rng, 3, 4, 1)),
        (rand_matrix(rng, 1, 3, 1), rand_matrix(rng, 3, 1, 1)),
        (zero_row, PolyMatrix.zeros(3, 2, 1)),
        (zero_row, zero_row.transpose()),
        (rand_matrix(rng, 3, 2, 2), rand_matrix(rng, 2, 3, 2)),
        (rand_matrix(rng, 2, 2, 2), PolyMatrix.identity(2, 2)),
    ]
    products = count_calls(monkeypatch, "sum_of_products", (polymat,))
    for a, b in cases:
        products.clear()
        got = a @ b
        assert len(products) == a.rows * b.cols
        zero = Polynomial.zero(a.nvars)
        expected = [
            [sum((a[i, l] * b[l, j] for l in range(a.cols)), zero) for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert got == PolyMatrix.from_rows(expected)


def test_symmetry_and_diagonal_predicates():
    assert M([["t1", "1"], ["1", "0"]]).is_symmetric()
    assert not M([["t1", "1"], ["0", "t1"]]).is_symmetric()
    d = PolyMatrix.diagonal([P("t1"), P("2")])
    assert d.is_diagonal()
    assert d.diagonal_entries() == (P("t1"), P("2"))
    assert not M([["1", "t1"], ["0", "1"]]).is_diagonal()
    assert not M([["1", "0"]]).is_diagonal()
    # only a matrix equals a matrix
    assert PolyMatrix.identity(1, 1) != 1 and PolyMatrix.identity(1, 1) != P("1")


def test_dimension_mismatch_rejected():
    a = PolyMatrix.identity(2, 1)
    b = PolyMatrix.identity(3, 1)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ PolyMatrix.identity(2, 2)


# description: (call, exception type, its text)
REFUSALS = {
    "no rows": (lambda: PolyMatrix(0, 1, []), ValueError, "matrix dimensions must be positive, got 0x1"),
    "no columns": (lambda: PolyMatrix(2, 0, []), ValueError, "matrix dimensions must be positive, got 2x0"),
    "too few entries": (lambda: PolyMatrix(1, 2, [P("1")]), ValueError, "expected 2 entries, got 1"),
    "an entry not a Polynomial": (
        lambda: PolyMatrix(1, 2, [P("1"), 1]), TypeError, "entries must be Polynomial values"),
    "a first entry not a Polynomial": (
        lambda: PolyMatrix(1, 1, [3]), TypeError, "entries must be Polynomial values"),
    "entries in two variable counts": (
        lambda: PolyMatrix(1, 2, [P("1"), P("1", 2)]), ValueError, "entries must share one variable count"),
    "assignment": (
        lambda: setattr(PolyMatrix.identity(1, 1), "rows", 2), AttributeError, "PolyMatrix is immutable"),
    "from no rows": (lambda: PolyMatrix.from_rows([]), ValueError, "no rows"),
    "from ragged rows": (lambda: PolyMatrix.from_rows([[P("1")], [P("1"), P("2")]]), ValueError, "ragged rows"),
    "diagonal of nothing": (lambda: PolyMatrix.diagonal([]), ValueError, "no diagonal entries"),
    "diagonal entries of a row": (lambda: M([["1", "2"]]).diagonal_entries(), ValueError, "not square"),
    "empty minor": (lambda: PolyMatrix.identity(2, 1).minor((), ()), ValueError, "row index tuple is empty"),
    "leading minor of a row": (
        lambda: M([["1", "2"]]).leading_principal_minor(1),
        ValueError, "leading principal minors need a square matrix"),
    "a matrix plus a number": (
        lambda: PolyMatrix.identity(1, 1) + 1,
        TypeError, "unsupported operand type(s) for +: 'PolyMatrix' and 'int'"),
    "a matrix minus a number": (
        lambda: PolyMatrix.identity(1, 1) - 1,
        TypeError, "unsupported operand type(s) for -: 'PolyMatrix' and 'int'"),
    "a matrix times nothing": (
        lambda: PolyMatrix.identity(1, 1) * None,
        TypeError, "unsupported operand type(s) for *: 'PolyMatrix' and 'NoneType'"),
    "a matrix product with a number": (
        lambda: PolyMatrix.identity(1, 1) @ 1,
        TypeError, "unsupported operand type(s) for @: 'PolyMatrix' and 'int'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusals_name_their_fault(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


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


def test_parse_matrix_parses_each_distinct_line_once(monkeypatch):
    calls = count_calls(monkeypatch, "parse_polynomial", (polymat,))
    text = "2 2 2\nt1 + t2\n0\n0\nt1 + t2\n"
    a = parse_matrix(text)
    assert a == M([["t1 + t2", "0"], ["0", "t1 + t2"]], 2)
    assert len(calls) == 2
    assert a[0, 0] is a[1, 1] and a[0, 1] is a[1, 0]
    assert parse_matrix(text)[0, 0] is not a[0, 0]
    # a bad line that repeats is reported at its first line
    with pytest.raises(ParseError) as info:
        parse_matrix("2 2 1\nt1\nt2\n1\nt2\n")
    assert str(info.value) == "line 3: column 1: unknown variable t2 (nvars=1)"
    # one memo holds a line once per variable count, and not a line that fails
    memo = polymat._LineMemo()
    assert memo[2, "t2"].nvars == 2
    with pytest.raises(ParseError) as info:
        memo[1, "t2"]
    assert str(info.value) == "column 1: unknown variable t2 (nvars=1)"
    assert list(memo) == [(2, "t2")]


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
