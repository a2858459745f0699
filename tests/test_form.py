"""Differential tests of the integer polynomial form.

A Polynomial stores one canonical form (den, pairs).  These tests check it
against a reference model written here, a dict from exponent tuples to
nonzero Fractions with schoolbook arithmetic, on every operation and on a
print/parse round trip, and check the form's invariants after each one.
Property tests use hypothesis with derandomized, bounded examples, so every
run sees the same cases.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydiag.arith import Polynomial, _pack, _unpacker, parse_polynomial, sum_of_products
from polydiag.errors import ExponentOverflow

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=6)
values = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def models(nvars):
    monomials = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(monomials, coefficients, max_size=5).map(
        lambda terms: {e: c for e, c in terms.items() if c}
    )


cases = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), models(n), models(n), models(n), st.tuples(*[values] * n))
)


# -- the reference model -------------------------------------------------------


def m_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def m_neg(p):
    return {e: -c for e, c in p.items()}


def m_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def m_degree(p):
    return max((sum(e) for e in p), default=-1)


def m_evaluate(p, point):
    return sum((c * math.prod(x**k for x, k in zip(point, e)) for e, c in p.items()), Fraction(0))


def assert_form(poly, model):
    """poly is canonical and holds exactly the model's terms."""
    nvars = poly.nvars
    den, pairs = poly._form
    assert type(den) is int and den >= 1
    keys = [k for k, _c in pairs]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(type(c) is int and c for _k, c in pairs)
    g = den
    for _k, c in pairs:
        g = math.gcd(g, c)
    assert g == 1
    unpack = _unpacker(nvars)
    assert all(_pack(unpack(k)) == k for k in keys)
    assert poly.terms == model
    assert all(type(c) is Fraction for c in poly.terms.values())
    assert poly == Polynomial(nvars, model)
    assert poly.degree() == m_degree(model)
    assert poly.is_zero() == (not model) == (not poly)
    constant = all(not any(e) for e in model)
    assert poly.is_constant() == constant
    if constant:
        assert poly.constant_value() == model.get((0,) * nvars, 0)
    else:
        with pytest.raises(ValueError, match="is not constant"):
            poly.constant_value()


@BOUNDED
@given(cases)
def test_ring_operations_match_model(case):
    n, mp, mq, mr, _point = case
    p, q, r = (Polynomial(n, m) for m in (mp, mq, mr))
    for poly, model in ((p, mp), (q, mq), (r, mr)):
        assert_form(poly, model)
    assert_form(p + q, m_add(mp, mq))
    assert_form(p - q, m_add(mp, m_neg(mq)))
    assert_form(-p, m_neg(mp))
    assert_form(p - p, {})
    assert_form(p * q, m_mul(mp, mq))
    assert_form(
        sum_of_products(n, [(p, q), (q, r), (-r, p)]),
        m_add(m_add(m_mul(mp, mq), m_mul(mq, mr)), m_neg(m_mul(mr, mp))),
    )
    assert_form(p * Fraction(-2, 3), m_mul(mp, {(0,) * n: Fraction(-2, 3)}))
    assert_form(Fraction(1, 2) + p, m_add(mp, {(0,) * n: Fraction(1, 2)}))


@BOUNDED
@given(cases)
def test_exact_division_matches_model(case):
    n, mp, mq, mr, _point = case
    p, q = Polynomial(n, mp), Polynomial(n, mq)
    if mq:
        assert_form((p * q).exact_div(q), mp)
        assert_form((p * q + q).exact_div(q), m_add(mp, {(0,) * n: Fraction(1)}))
    else:
        with pytest.raises(ZeroDivisionError):
            p.exact_div(q)
    assert_form(p.exact_div(Fraction(-3, 5)), m_mul(mp, {(0,) * n: Fraction(-5, 3)}))


@BOUNDED
@given(cases)
def test_evaluate_and_round_trip_match_model(case):
    n, mp, _mq, _mr, point = case
    p = Polynomial(n, mp)
    value = p.evaluate(point)
    assert type(value) is Fraction and value == m_evaluate(mp, point)
    text = str(p)
    parsed = parse_polynomial(text, n)
    assert_form(parsed, mp)
    assert str(parsed) == text


def test_parse_adds_up_like_terms():
    p = parse_polynomial("1/2*t1*t2 + 1/3 - t2*t1 + 2/4*t1*t2 + 0*t2 - 1/3", 2)
    assert_form(p, {})
    p = parse_polynomial("2/6*t1^2 + 1/6*t1^2 + 3*t2 - 6/4", 2)
    assert p._form == (2, [(_pack((2, 0)), 1), (_pack((0, 1)), 6), (0, -3)])
    assert_form(p, {(2, 0): Fraction(1, 2), (0, 1): Fraction(3), (0, 0): Fraction(-3, 2)})


def test_constructed_exponents_stop_below_guard_bit():
    below = (1 << 31) - 1
    assert Polynomial(2, {(below, 0): 1}).degree() == below
    with pytest.raises(ExponentOverflow):
        Polynomial(2, {(1 << 31, 0): 1})
