"""Tests for exact rational polynomial arithmetic."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydiag import arith
from polydiag.arith import MAX_EXPONENT, Polynomial, _tokenize, _walk, parse_polynomial
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
        ("3*t1 t2", "column 6: expected '+' or '-' between terms"),
        ("3*t1t2", "column 5: expected '+' or '-' between terms"),
    ):
        with pytest.raises(ParseError) as info:
            P(text, 2)
        assert str(info.value) == message


# Pieces of token strings: whitespace a line may hold, the grammar's tokens,
# and what it refuses: non-ASCII digits, '_', t0, out-of-range variables,
# exponents past MAX_EXPONENT or a 32-bit key field, and literals past the
# int-string limit.
SPACES = (" ", "  ", "\t", "\u00a0", "\u3000", "\x1c", "\x85", "\u2028")
PIECES = (
    "0", "1", "2", "12", "007", "t1", "t2", "t3", "t01", "t0", "t", "+", "-", "*", "/", "^",
    str(MAX_EXPONENT), str(MAX_EXPONENT + 1), "\u0661", "\uff12", "_", "1_0", "7" * 4301,
) + SPACES
SPACE = st.sampled_from(("",) * 6 + SPACES)
FACTOR = st.builds(
    lambda i, e, a, b: f"t{i}" + (f"{a}^{b}{e}" if e else ""),
    st.sampled_from(("1",) * 12 + ("2",) * 8 + ("01", "3", "0")),
    st.sampled_from(("",) * 8 + ("0", "2", "5", str(MAX_EXPONENT), str(MAX_EXPONENT + 1), str(1 << 32))),
    SPACE,
    SPACE,
)
TERM = st.builds(
    lambda coeff, star, factors: coeff + star + "*".join(factors) if coeff and factors
    else coeff + "*".join(factors),
    st.sampled_from(("",) * 4 + ("3", "2", "1/2", "12 / 8", "0") * 2 + ("4/0",)),
    st.sampled_from(("", "*", " * ", " ")),
    st.lists(FACTOR, max_size=3),
)
POLY_TEXT = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
    st.builds(
        lambda sign, first, rest, tail: sign + first + "".join(rest) + tail,
        st.sampled_from(("", "-", "+ ")),
        TERM,
        st.lists(st.tuples(SPACE, st.sampled_from("+-"), SPACE, TERM).map("".join), max_size=4),
        st.sampled_from(("",) * 48 + PIECES),
    ),
)


def reference_parse(text, nvars):
    """The polynomial of text that _walk accepts, summed term by term from
    its tokens with the validating constructor."""
    total = Polynomial.zero(nvars)
    sign, started = 1, False
    for kind, val, _col in [*_tokenize(text), ("op", "+", None)]:
        if kind == "op" and val in "+-":
            if started:
                total += Polynomial(nvars, {tuple(exps): sign * coeff})
            sign, started = (-1 if val == "-" else 1), False
            continue
        if not started:
            coeff, exps, var, after, started = Fraction(1), [0] * nvars, 0, "", True
        if kind == "op":
            after = val
        elif kind == "var":
            var, after = val, ""
            exps[var - 1] += 1
        elif after == "^":
            exps[var - 1] += val - 1
        else:
            coeff = coeff / val if after == "/" else coeff * val
    return total


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(POLY_TEXT, st.sampled_from((1, 2, 2, 3)))
def test_scan_agrees_with_walker(text, nvars):
    """Each text gives the reference polynomial, or the ParseError of a
    token walk over the whole text; a token fault anywhere outranks a
    grammar fault."""
    try:
        list(_tokenize(text))
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _walk(text, nvars)
        assert str(info.value) == str(exc)
    try:
        _walk(text, nvars)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, nvars)
        assert str(info.value) == str(exc)
    else:
        assert parse_polynomial(text, nvars) == reference_parse(text, nvars)


@st.composite
def spaced_poly_text(draw):
    """Terms whose factors '*' joins with whitespace on either side and
    often repeat a variable, as in ``t1^2 * t1``, so that a term's first
    factor and the factors after it fold into one key."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(FACTOR, min_size=1, max_size=4))
        factors += draw(st.lists(st.sampled_from(factors), max_size=2))  # the same variable again
        text = factors[0] + "".join(draw(SPACE) + "*" + draw(SPACE) + f for f in factors[1:])
        coeff = draw(st.sampled_from(("",) * 3 + ("3", "1/2", "12 / 8")))
        terms.append(coeff + draw(st.sampled_from(("", "*", " * "))) + text if coeff else text)
    signs = [draw(st.sampled_from(("", "-")))] + [
        draw(SPACE) + draw(st.sampled_from("+-")) + draw(SPACE) for _ in terms[1:]
    ]
    return "".join(sign + term for sign, term in zip(signs, terms))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(spaced_poly_text(), st.sampled_from((1, 2, 2, 3)))
@example("t1^2 * t1", 1)
@example(f"t1^{MAX_EXPONENT}*t1", 1)
@example(f"t1^{MAX_EXPONENT - 1} *  t2 *t1 - 2 * t2^2\t*\tt2", 2)
def test_scan_agrees_with_walker_on_spaced_repeated_factors(text, nvars):
    """What test_scan_agrees_with_walker asserts, on these texts."""
    test_scan_agrees_with_walker.hypothesis.inner_test(text, nvars)


def test_parse_long_line_in_linear_time(monkeypatch):
    text = " + ".join(f"{k}*t1^{k % 90}*t2^{k // 90 % 90}" for k in range(1, 100_001))
    start = time.perf_counter()
    p = parse_polynomial(text, 2)
    assert time.perf_counter() - start < 1.0
    assert len(p._form[1]) == 8100
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_polynomial(text + "$", 2)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == f"column {len(text) + 1}: unexpected character '$'"
    # a fault in the first term is found without reading the terms after it;
    # a token fault at the far end still outranks it
    first_term_fault = "t1 t2" + text[len("1*t1^1*t2^0") :]
    literals = []
    real_int_literal = arith._int_literal
    monkeypatch.setattr(
        arith, "_int_literal", lambda *args: literals.append(args) or real_int_literal(*args)
    )
    with pytest.raises(ParseError) as info:
        parse_polynomial(first_term_fault, 2)
    assert str(info.value) == "column 4: expected '+' or '-' between terms"
    assert len(literals) < 5
    for tail, message in (
        ("$", "unexpected character '$'"),
        ("t" + "9" * 5000, f"integer with more than {sys.get_int_max_str_digits()} digits"),
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"{first_term_fault} + {tail}", 2)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"column {len(first_term_fault) + 4}: {message}"


def test_parse_star_optional_after_coefficient():
    assert P("2t1") == P("2*t1")


def test_parse_rejects_variable_out_of_range():
    with pytest.raises(ParseError):
        P("t3", 2)


@pytest.mark.parametrize("nvars", [0, -1])
def test_parse_refuses_a_variable_count_below_one(nvars):
    """The text refuses nvars < 1 as Polynomial(nvars) and const do, before
    it is scanned: "3" reads in no ring, and neither does text that the
    grammar refuses."""
    for make in (Polynomial, lambda n: Polynomial.const(n, 3), lambda n: P("3", n), lambda n: P("t1 +", n)):
        with pytest.raises(ValueError) as info:
            make(nvars)
        assert str(info.value) == f"nvars must be positive, got {nvars}"


def test_a_number_minus_a_polynomial():
    p = P("t1^2 - 1/2")
    assert 3 - p == P("-t1^2 + 7/2")
    assert Fraction(1, 2) - p == P("-t1^2 + 1")
    assert 0 - p == -p


# description: (call, exception type, its text)
REFUSALS = {
    "exponent tuple of another length": (
        lambda: Polynomial(2, {(1,): 1}), ValueError, "exponent tuple (1,) has length 1, expected 2"),
    "assignment": (lambda: setattr(P("t1"), "nvars", 2), AttributeError, "Polynomial is immutable"),
    "variable past nvars": (
        lambda: Polynomial.variable(2, 3), ValueError, "variable index 3 out of range for nvars=2"),
    "negative power": (lambda: P("t1") ** -1, ValueError, "exponent must be a nonnegative integer, got -1"),
    "a polynomial plus text": (
        lambda: P("t1") + "1", TypeError, "unsupported operand type(s) for +: 'Polynomial' and 'str'"),
    "a polynomial minus text": (
        lambda: P("t1") - "1", TypeError, "unsupported operand type(s) for -: 'Polynomial' and 'str'"),
    "text minus a polynomial": (
        lambda: "1" - P("t1"), TypeError, "unsupported operand type(s) for -: 'str' and 'Polynomial'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusals_name_their_fault(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


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
