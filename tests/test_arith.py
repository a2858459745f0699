"""Tests for exact rational polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from polydiag.arith import Polynomial, parse_polynomial
from polydiag.errors import ParseError

from helpers import rand_poly


def P(text, nvars=1):
    return parse_polynomial(text, nvars)


def test_add_cancellation_to_constant():
    assert P("t1^2 + 1") + P("-t1^2") == P("1")


def test_add_zero_identity():
    p = P("3*t1^2 - t1 + 5")
    assert p + Polynomial.zero(1) == p
    assert Polynomial.zero(1) + p == p


def test_add_coefficient_halves():
    h = P("1/2*t1*t2", 2)
    assert h + h == P("t1*t2", 2)


def test_mul_difference_of_squares():
    assert P("t1 + 1") * P("t1 - 1") == P("t1^2 - 1")


def test_mul_by_zero():
    p = P("t1^3 - 2*t1")
    assert p * Polynomial.zero(1) == Polynomial.zero(1)


def test_mul_binomial_square():
    s = P("t1 + t2", 2)
    assert s * s == P("t1^2 + 2*t1*t2 + t2^2", 2)


def test_eval_examples():
    assert P("t1*t2 + 1", 2).evaluate((Fraction(2), Fraction(3))) == 7
    assert Polynomial.zero(3).evaluate((Fraction(1), Fraction(-5), Fraction(7))) == 0
    # (t-1)^2 has a root at 1
    assert P("t1^2 - 2*t1 + 1").evaluate((Fraction(1),)) == 0


def test_degree_examples():
    assert Polynomial.zero(2).degree() == -1
    assert P("t1^3*t2 + t2^2", 2).degree() == 4
    assert P("5").degree() == 0


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        P("t1") + P("t1", 2)
    with pytest.raises(ValueError):
        P("t1") * P("t1", 2)
    with pytest.raises(ValueError):
        P("t1 + t2", 2).evaluate((Fraction(1),))


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        d = rng.randint(1, 3)
        p = rand_poly(rng, d, max_deg=4)
        q = rand_poly(rng, d, max_deg=4)
        r = rand_poly(rng, d, max_deg=4)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_eval_is_ring_homomorphism():
    rng = random.Random(102)
    for _ in range(200):
        d = rng.randint(1, 3)
        p = rand_poly(rng, d, max_deg=3)
        q = rand_poly(rng, d, max_deg=3)
        s = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
        assert (p * q).evaluate(s) == p.evaluate(s) * q.evaluate(s)
        assert (p + q).evaluate(s) == p.evaluate(s) + q.evaluate(s)


def test_canonical_form_no_zero_coefficients():
    rng = random.Random(103)
    for _ in range(300):
        d = rng.randint(1, 3)
        p = rand_poly(rng, d)
        q = rand_poly(rng, d)
        for result in (p + q, p - q, p * q, -p):
            assert all(c != 0 for c in result.terms.values())


def test_product_degree_adds():
    rng = random.Random(104)
    for _ in range(100):
        p = rand_poly(rng, 2, max_deg=3)
        q = rand_poly(rng, 2, max_deg=3)
        if p.terms and q.terms:
            assert (p * q).degree() == p.degree() + q.degree()


def test_constructor_drops_zero_terms():
    p = Polynomial(1, {(1,): Fraction(0), (0,): Fraction(2)})
    assert p == P("2")


def test_power():
    t = Polynomial.variable(2, 1)
    assert t ** 0 == Polynomial.one(2)
    assert t ** 3 == P("t1^3", 2)


def test_str_graded_lex_order():
    # higher total degree first, ties broken lexicographically with t1 heaviest
    p = P("t2 + t1 + t1*t2 + 1", 2)
    assert str(p) == "t1*t2 + t1 + t2 + 1"


def test_str_coefficient_forms():
    assert str(P("-t1 + 1/2")) == "-t1 + 1/2"
    assert str(P("3/2*t1^2*t2 - t2 + 1", 2)) == "3/2*t1^2*t2 - t2 + 1"
    assert str(Polynomial.zero(2)) == "0"
    assert str(P("-2*t1")) == "-2*t1"


def test_parse_str_round_trip_random():
    rng = random.Random(105)
    for _ in range(200):
        d = rng.randint(1, 3)
        p = rand_poly(rng, d, max_deg=4, max_terms=5)
        assert parse_polynomial(str(p), d) == p


def test_parse_whitespace_insensitive():
    assert P("  t1^2-1 ") == P("t1^2 - 1")
    assert P("3/2 * t1 ^ 2 * t2", 2) == P("3/2*t1^2*t2", 2)


def test_parse_rejects_bad_input():
    for bad in ("", "t0", "t1 +", "t1^", "1/0", "t1^-2", "t1 * * t1", "x1"):
        with pytest.raises(ParseError):
            P(bad, 2)


def test_parse_error_texts():
    for text, message in (
        ("1/", "column 3: expected a denominator"),
        ("1/t1", "column 3: expected a denominator"),
        ("t1 t2", "column 4: expected '+' or '-' between terms"),
    ):
        with pytest.raises(ParseError) as info:
            P(text, 2)
        assert str(info.value) == message


def test_parse_star_optional_after_coefficient():
    assert P("2t1") == P("2*t1")


def test_parse_rejects_variable_out_of_range():
    with pytest.raises(ParseError):
        P("t3", 2)


def test_exact_div_round_trip():
    rng = random.Random(106)
    done = 0
    while done < 100:
        d = rng.randint(1, 2)
        p = rand_poly(rng, d, max_deg=3)
        q = rand_poly(rng, d, max_deg=3)
        if not q.terms:
            continue
        assert (p * q).exact_div(q) == p
        done += 1


def test_exact_div_failure():
    with pytest.raises(ValueError, match="does not divide"):
        P("t1^2 + 1").exact_div(P("t1"))
    with pytest.raises(ZeroDivisionError):
        P("t1").exact_div(Polynomial.zero(1))
