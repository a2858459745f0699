"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in d variables t1..td is a finite sum of terms, each a nonzero
rational coefficient times a monomial, the monomial given by an exponent
tuple (one nonnegative integer per variable).  A Polynomial stores one
canonical integer form (den, pairs): den >= 1 is a common denominator and
pairs lists (packed monomial key, nonzero integer numerator) with the keys
strictly descending and gcd(den, numerators) = 1, so each coefficient is
numerator / den, two polynomials are equal iff their forms are, and the zero
polynomial is (1, []).  All arithmetic runs on these integers; Fractions
appear only at the edges of the API (the constructor, ``terms``,
``constant_value``, ``evaluate`` and rational scalars).

A key packs the exponents into fixed 32-bit fields, t1 highest and td
lowest, under one more field holding the total degree (omitted for one
variable, where the exponent is the degree).  Adding two keys multiplies two
monomials, and comparing two keys as integers is the graded lexicographic
order, so the first pair holds the leading term and the degree.  Products
and divisions keep every exponent below 2^30, so a field never carries into
the next; one whose exponents would outgrow that raises ExponentOverflow.  A
constructed polynomial may hold exponents below 2^31, the guard bit that
exact_div borrows against.  sum_of_products accumulates a whole sum of
products on plain integers over one common denominator; a single product is
its one-pair case.

The text syntax (used by the file formats and the CLI) is a sum of terms
separated by + or -, where a term is an optional rational coefficient
(``3``, ``-1/2``), an optional ``*``, and ``*``-separated variable factors
``t<i>`` or ``t<i>^<e>``.  Example: ``3/2*t1^2*t2 - t2 + 1``.  Whitespace is
insignificant.  The parser refuses a term in which one variable's exponent
exceeds MAX_EXPONENT.  Printing walks the pairs from the top, so terms come
in graded lexicographic order with t1 > t2 > ..., highest degree first, and
round-trips through the parser.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import ExponentOverflow, ParseError

# Largest exponent of one variable in one term that the parser accepts.
MAX_EXPONENT = 4096
# Largest variable count a matrix or certificate file may state; a packed
# key grows by one field per variable, so packing costs O(nvars^2).
MAX_NVARS = 64

_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# products and divisions keep exponents below this, so a sum of two never carries
_EXP_LIMIT = 1 << 30
# set in a field iff its exponent is >= 2^30
_OVERFLOW_BITS = _FIELD_MASK ^ (_EXP_LIMIT - 1)
# top bit of a field, free while exponents stay below 2^31
_GUARD_BIT = 1 << (_FIELD_BITS - 1)


def _pack(exps, limit=_EXP_LIMIT):
    """Packed key of an exponent sequence: [degree,] t1, ..., td, td lowest.

    Raises ExponentOverflow for an exponent not below ``limit``, a power of 2.
    """
    if max(exps) >= limit:
        raise ExponentOverflow(f"exponent in {tuple(exps)} is not below 2^{limit.bit_length() - 1}")
    key = sum(exps) if len(exps) > 1 else 0
    for e in exps:
        key = (key << _FIELD_BITS) | e
    return key


@lru_cache(maxsize=64)
def _unpacker(nvars):
    """Function from a packed key back to its exponent tuple."""
    if nvars == 1:
        return lambda key: (key,)
    if nvars == 2:
        return lambda key: ((key >> _FIELD_BITS) & _FIELD_MASK, key & _FIELD_MASK)
    shifts = [_FIELD_BITS * k for k in reversed(range(nvars))]
    return lambda key: tuple([(key >> s) & _FIELD_MASK for s in shifts])


@lru_cache(maxsize=64)
def _field_bits(nvars, bits):
    """The given bits repeated in every exponent field of a packed key."""
    return sum(bits << (_FIELD_BITS * k) for k in range(nvars))


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    Stores ``nvars`` and the canonical integer form (den, pairs) described
    in the module docstring.  ``terms`` is a computed view of it: a fresh
    dict from exponent tuples of length ``nvars`` to nonzero Fractions.
    """

    __slots__ = ("nvars", "_form")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {nvars}")
            if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[_pack(exps, _GUARD_BIT)] = coeff
        # den is the lcm of the reduced denominators, so gcd(den, numerators) = 1
        den = 1
        for c in clean.values():
            den = math.lcm(den, c.denominator)
        pairs = [(k, c.numerator * (den // c.denominator)) for k, c in clean.items()]
        pairs.sort(reverse=True)
        _set_nvars(self, nvars)
        _set_form(self, (den, pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, nvars):
        return cls.const(nvars, 0)

    @classmethod
    def const(cls, nvars, value):
        """Constant polynomial with the given rational value."""
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        value = Fraction(value)
        return _new(nvars, value.denominator, [(0, value.numerator)] if value else [])

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, nvars, i):
        """The variable t<i>; i is 1-based, matching the text syntax."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @property
    def terms(self):
        """Exponent tuple -> nonzero Fraction coefficient, computed from the form."""
        den, pairs = self._form
        unpack = _unpacker(self.nvars)
        return {unpack(k): Fraction(c, den) for k, c in pairs}

    # -- queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self._form[1])

    def is_zero(self):
        return not self._form[1]

    def degree(self):
        """Max total degree of the terms, the leading one's; -1 for the zero polynomial."""
        pairs = self._form[1]
        if not pairs:
            return -1
        return pairs[0][0] >> (_FIELD_BITS * self.nvars) if self.nvars > 1 else pairs[0][0]

    def is_constant(self):
        pairs = self._form[1]
        return not pairs or pairs[0][0] == 0

    def constant_value(self):
        """The value of a constant polynomial as a Fraction."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        den, pairs = self._form
        return Fraction(pairs[0][1], den) if pairs else Fraction(0)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, left = self._form
        db, right = other._form
        if not right:
            return self
        if not left:
            return other
        den = da if da == db else math.lcm(da, db)
        scale = den // da
        acc = dict(left) if scale == 1 else {k: c * scale for k, c in left}
        get = acc.get
        scale = den // db
        for k, c in right:
            acc[k] = get(k, 0) + c * scale
        return _collect(self.nvars, den, acc)

    __radd__ = __add__

    def __neg__(self):
        den, pairs = self._form
        return _new(self.nvars, den, [(k, -c) for k, c in pairs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products(self.nvars, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n}")
        out = Polynomial.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._form == other._form

    __hash__ = None

    def exact_div(self, divisor):
        """Exact quotient self / divisor; raises ValueError if not divisible.

        Single-divisor long division on the integer numerators: each step
        cancels the graded-lex leading term of the remainder and only
        introduces strictly smaller monomials, so the loop terminates and
        the quotient's keys come out strictly descending.  A step whose
        monomial quotient has a negative exponent proves non-divisibility.
        The remainder is kept as integers R over a scale s; a step whose
        leading coefficient the divisor's does not divide scales R up.
        """
        divisor = self._coerce(divisor)
        if divisor is None or not isinstance(divisor, Polynomial):
            raise TypeError("divisor must be a Polynomial or rational")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        nvars = self.nvars
        num_den, num_pairs = self._form
        div_den, div_pairs = divisor._form
        lead_key, lead = div_pairs[0]
        high = _field_bits(nvars, _OVERFLOW_BITS)
        guard = _field_bits(nvars, _GUARD_BIT)
        # self / divisor = (div_den / num_den) * (N / M) on the numerators
        rem = dict(num_pairs)
        scale = 1
        quot = []
        while rem:
            key = max(rem)
            r = rem[key]
            if key & high:
                exps = _unpacker(nvars)(key)
                raise ExponentOverflow(f"remainder exponent {exps} is not below 2^30")
            # borrow-free monomial division: a cleared guard bit is a negative exponent
            shifted = (key | guard) - lead_key
            if shifted & guard != guard:
                raise ValueError(f"({divisor}) does not divide ({self})")
            qkey = shifted ^ guard
            # the quotient term is r / (scale * lead) of N / M
            quot.append((qkey, r, scale))
            g = math.gcd(r, lead)
            up = lead // g
            if up != 1:
                rem = {k: c * up for k, c in rem.items()}
                scale *= up
            r //= g
            get = rem.get
            for k2, c2 in div_pairs:
                k = qkey + k2
                c = get(k, 0) - r * c2
                if c:
                    rem[k] = c
                else:
                    del rem[k]
        # every step's scale divides the last one: one denominator for all
        den = scale * lead * num_den
        if den < 0:
            den, div_den = -den, -div_den
        return _reduced(nvars, den, [(k, r * (scale // s) * div_den) for k, r, s in quot])

    def evaluate(self, point):
        """Exact value at a rational point (sequence of length nvars)."""
        vals = [Fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise ValueError(f"point has {len(vals)} coordinates, expected {self.nvars}")
        den, pairs = self._form
        unpack = _unpacker(self.nvars)
        # exponents repeat across terms, so memoize coordinate powers
        pows = [{} for _ in vals]
        total = Fraction(0)
        for key, coeff in pairs:
            term = coeff
            for k, e in enumerate(unpack(key)):
                if e:
                    cache = pows[k]
                    p = cache.get(e)
                    if p is None:
                        p = vals[k] ** e
                        cache[e] = p
                    term *= p
            total += term
        return total / den

    # -- text ------------------------------------------------------------

    def __str__(self):
        den, pairs = self._form
        if not pairs:
            return "0"
        unpack = _unpacker(self.nvars)
        gcd = math.gcd
        parts = []
        for key, c in pairs:
            mono = "*".join(
                [f"t{k}" if e == 1 else f"t{k}^{e}" for k, e in enumerate(unpack(key), 1) if e]
            )
            num = -c if c < 0 else c
            if den == 1:
                mag = str(num)
            else:
                g = gcd(num, den)
                mag = f"{num // g}" if g == den else f"{num // g}/{den // g}"
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        first = parts[0][2:]
        parts[0] = f"-{first}" if pairs[0][1] < 0 else first
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.nvars}, '{self}')"


_object_new = object.__new__
_set_nvars = Polynomial.nvars.__set__
_set_form = Polynomial._form.__set__


def _new(nvars, den, pairs):
    """Polynomial over a form that is already canonical; no checks, no copy."""
    p = _object_new(Polynomial)
    _set_nvars(p, nvars)
    _set_form(p, (den, pairs))
    return p


def _reduced(nvars, den, pairs):
    """Polynomial over den > 0 and (key, nonzero numerator) pairs with keys
    strictly descending, with gcd(den, numerators) divided out."""
    if den != 1:
        g = den
        for _k, c in pairs:
            g = math.gcd(g, c)
            if g == 1:
                break
        if g != 1:
            den //= g
            pairs = [(k, c // g) for k, c in pairs]
    return _new(nvars, den, pairs)


def _collect(nvars, den, acc):
    """Polynomial of the numerators ``acc`` (packed key -> integer) over den > 0."""
    pairs = [(k, c) for k, c in acc.items() if c]
    pairs.sort(reverse=True)
    return _reduced(nvars, den, pairs)


def sum_of_products(nvars, pairs):
    """Exact sum of a*b over the (a, b) pairs of Polynomials, as one Polynomial.

    Every product runs on the operands' integer forms against one common
    denominator (the lcm of the pairs' denominator products), so the sum is
    accumulated on plain integers.  Pairs with a zero factor are skipped.
    """
    forms = []
    den = 1
    for a, b in pairs:
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError(f"variable-count mismatch: {a.nvars} vs {b.nvars}, expected {nvars}")
        da, left = a._form
        db, right = b._form
        if left and right:
            d = da * db
            if d != 1:
                den = math.lcm(den, d)
            forms.append((d, left, right))
    acc = {}
    get = acc.get
    for d, left, right in forms:
        scale = den // d
        for k1, c1 in left:
            if scale != 1:
                c1 *= scale
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    high = _field_bits(nvars, _OVERFLOW_BITS)
    out = []
    for k, c in acc.items():
        if c:
            if k & high:
                raise ExponentOverflow(f"product exponent {_unpacker(nvars)(k)} is not below 2^30")
            out.append((k, c))
    out.sort(reverse=True)
    return _reduced(nvars, den, out)


# ASCII digits only: \d and int() also read other scripts' digits, and int()
# '_' separators; text written so would parse yet not re-format to itself
_TOKEN_RE = re.compile(r"([0-9]+)|t([0-9]+)|([+\-*/^])|(\S)")
_DECIMAL_RE = re.compile(r"-?[0-9]+")


def _decimal_int(text):
    """int(text) for text of the form -?[0-9]+ (ASCII); ValueError otherwise."""
    if _DECIMAL_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _int_literal(digits, unit, pos):
    """int(digits); a literal past Python's int-string limit is a ParseError
    at ``unit pos`` (e.g. column 5), not the ValueError int() raises."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{unit} {pos}: integer with more than {limit} digits") from None


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        col = m.start() + 1
        if m.group(1) is not None:
            tokens.append(("int", _int_literal(m.group(1), "column", col), col))
        elif m.group(2) is not None:
            tokens.append(("var", _int_literal(m.group(2), "column", col), col))
        elif m.group(3) is not None:
            tokens.append(("op", m.group(3), col))
        else:
            raise ParseError(f"column {col}: unexpected character {m.group(4)!r}")
    return tokens


def parse_polynomial(text, nvars):
    """Parse the polynomial text syntax; raises ParseError with a column."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    found = []  # (packed key, signed numerator, denominator) per term
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None, len(text) + 1)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_factor(exps):
        kind, val, col = take()
        if kind != "var":
            raise ParseError(f"column {col}: expected a variable factor")
        if not 1 <= val <= nvars:
            raise ParseError(f"column {col}: unknown variable t{val} (nvars={nvars})")
        exp = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            kind2, val2, col2 = take()
            if kind2 != "int":
                raise ParseError(f"column {col2}: expected an integer exponent")
            exp = val2
        exps[val - 1] += exp
        if exps[val - 1] > MAX_EXPONENT:
            raise ParseError(f"column {col}: exponent of t{val} exceeds the maximum {MAX_EXPONENT}")

    def parse_term(sign):
        num, den = sign, 1
        exps = [0] * nvars
        kind, val, col = peek()
        have_any = False
        if kind == "int":
            take()
            num *= val
            have_any = True
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                kind2, val2, col2 = take()
                if kind2 != "int":
                    raise ParseError(f"column {col2}: expected a denominator")
                if val2 == 0:
                    raise ParseError(f"column {col2}: zero denominator")
                den = val2
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                parse_factor(exps)
                have_any = True
        if peek()[0] == "var":
            parse_factor(exps)
            have_any = True
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            parse_factor(exps)
        if not have_any:
            kind, val, col = peek()
            raise ParseError(f"column {col}: expected a term")
        found.append((_pack(exps), num, den))

    sign = 1
    kind, val, col = peek()
    if kind == "op" and val in "+-":
        take()
        sign = -1 if val == "-" else 1
    parse_term(sign)
    while pos < len(tokens):
        kind, val, col = take()
        if kind != "op" or val not in "+-":
            raise ParseError(f"column {col}: expected '+' or '-' between terms")
        parse_term(-1 if val == "-" else 1)
    den = 1
    for _key, _num, d in found:
        if d != 1:
            den = math.lcm(den, d)
    acc = {}
    get = acc.get
    for key, num, d in found:
        acc[key] = get(key, 0) + num * (den // d)
    return _collect(nvars, den, acc)
