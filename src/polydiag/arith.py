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
its one-pair case.  _images maps one-variable polynomials to integers at
t1 = 2^beta, and _from_image maps such an integer back: every integer is
the image of exactly one integer polynomial with balanced base-2^beta
digits (_digits), so the two are inverse on those polynomials.

The text syntax (used by the file formats and the CLI) is

    polynomial  := [sign] term (sign term)*
    term        := coefficient [["*"] factors] | factors
    coefficient := integer ["/" integer]
    factors     := factor ("*" factor)*
    factor      := "t" integer ["^" integer]
    sign        := "+" | "-"
    integer     := one or more ASCII digits 0-9

for example ``3/2*t1^2*t2 - t2 + 1`` or ``2t1``.  Whitespace (any character
that str.isspace() names) may stand between two tokens but not inside an
integer or a ``t<i>``: ``1 2`` is two integers, which no term holds, and
``t 1`` is refused.  The parser also refuses a variable outside t1..td, a
zero denominator, an integer past Python's int-string limit, and a term
in which one variable's exponents sum past MAX_EXPONENT.  Printing walks
the pairs from the top, so terms come in graded lexicographic order with
t1 > t2 > ..., highest degree first, and round-trips through the parser.
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
        if type(value) is not int:
            value = Fraction(value)
            return _new(nvars, value.denominator, [(0, value.numerator)] if value else [])
        return _new(nvars, 1, [(0, value)] if value else [])

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
        leading coefficient the divisor's does not divide scales R up.  A
        constant divisor only rescales the form: that division would cancel
        the terms one by one from the top, so it raises the same
        ExponentOverflow, at the same highest term.
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
        if not lead_key:
            for key, _c in num_pairs:
                if key & high:
                    exps = _unpacker(nvars)(key)
                    raise ExponentOverflow(f"remainder exponent {exps} is not below 2^30")
            # (N / num_den) / (lead / div_den), lead's sign moved to the numerators
            if lead < 0:
                lead, div_den = -lead, -div_den
            if lead == 1 and div_den == 1:
                return self
            return _reduced(nvars, num_den * lead, [(k, c * div_den) for k, c in num_pairs])
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
        fields = _var_fields(self.nvars).values() if self.nvars > 1 else None
        gcd = math.gcd
        parts = []
        for key, c in pairs:
            if fields is None:  # the key is the exponent; the loop costs produce 4 % in p50
                mono = "" if not key else "t1" if key == 1 else f"t1^{key}"
            else:
                mono = ""
                for shift, _step, name in fields:
                    e = (key >> shift) & _FIELD_MASK
                    if e:
                        factor = name if e == 1 else f"{name}^{e}"
                        mono = f"{mono}*{factor}" if mono else factor
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


def _image_bounds(polys):
    """(L, B, d, forms) for one-variable polys: the lcm L of their
    denominators, B = L * (most terms) * (largest numerator), which bounds
    the l1 norm of every L*p, the largest degree d, and the integer forms
    that _images reads."""
    forms = [p._form for p in polys]
    lcm = 1
    top = terms = degree = 0
    for den, pairs in forms:
        if pairs:
            if den != 1:
                lcm = math.lcm(lcm, den)
            for _k, c in pairs:
                if c > top:
                    top = c
                elif -c > top:
                    top = -c
            terms = max(terms, len(pairs))
            degree = max(degree, pairs[0][0])
    return lcm, lcm * terms * top, degree, forms


def _images(forms, lcm, beta):
    """L/den*N(2^beta) for each one-variable form (den, N): one shift-add
    per term, from the top key (the exponent) down."""
    out = []
    for den, pairs in forms:
        value = 0
        prev = pairs[0][0] if pairs else 0
        for k, c in pairs:
            value = (value << beta * (prev - k)) + c
            prev = k
        out.append((value << beta * prev) * (lcm // den))
    return out


def _from_image(value, beta, den):
    """N/den, for den > 0 and N the one-variable integer polynomial whose
    coefficients are value's balanced base-2^beta digits (_digits).  Its
    image N(2^beta) is value for every integer value, so this inverts
    _images on every polynomial whose coefficients, times den, lie in
    [-2^(beta-1), 2^(beta-1)): those digits are unique."""
    return _reduced(1, den, _digits(value, beta)[0])


def _digits(value, beta):
    """(pairs, l1) of the integer polynomial N whose digits are value's
    balanced base-2^beta digits, each in [-2^(beta-1), 2^(beta-1)): its
    (exponent, nonzero coefficient) pairs, top first, and the sum of its
    coefficients' absolute values.  N(2^beta) = value for every integer
    value, so N is the one polynomial with that image and such digits."""
    pairs = []
    mask, half = (1 << beta) - 1, 1 << (beta - 1)
    k = l1 = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << beta
            l1 -= digit
        else:
            l1 += digit
        if digit:
            pairs.append((k, digit))
        value = (value - digit) >> beta
        k += 1
    pairs.reverse()
    return pairs, l1


# ASCII digits only: \d and int() also read other scripts' digits, and int()
# '_' separators; text written so would parse yet not re-format to itself.
# _TERM_RE reads one term of the module docstring's grammar and the sign
# before it, as (sign, numerator, denominator, first variable, its exponent,
# the factors after it); a '*' after the coefficient is taken only before a
# factor.  Every part is optional, so it always matches.  (?:...|) matches
# as (?:...)? does, a fifth faster: re saves group marks in a repeat.
_FACTOR = r"t[0-9]+(?:\s*\^\s*[0-9]+|)"
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:([0-9]+)(?:\s*/\s*([0-9]+)|)\s*(?:\*\s*(?=t[0-9])|)|)"
    rf"(?:t([0-9]+)(?:\s*\^\s*([0-9]+)|)((?:\s*\*\s*{_FACTOR})*)|)\s*"
)
_FACTOR_RE = re.compile(r"t([0-9]+)(?:\s*\^\s*([0-9]+))?")
_TOKEN_RE = re.compile(r"([0-9]+)|t([0-9]+)|([+\-*/^])|(\S)")
# a character that _TOKEN_RE reads only as its last group, (\S)
_UNEXPECTED_RE = re.compile(r"[^\s0-9t+\-*/^]|t(?![0-9])")
_DECIMAL_RE = re.compile(r"-?[0-9]+")


def _decimal_int(text):
    """int(text) for text of the form -?[0-9]+ (ASCII); ValueError otherwise."""
    if _DECIMAL_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _int_literal(digits, where=""):
    """int(digits); a literal past Python's int-string limit is a ParseError
    after the prefix ``where`` (e.g. "column 5: "), not int()'s ValueError."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{where}integer with more than {limit} digits") from None


@lru_cache(maxsize=64)
def _var_fields(nvars):
    """Digits i of t<i> -> (shift of t<i>'s key field, packed key of t<i>,
    "t<i>"), i = 1..nvars in order; _scan and Polynomial.__str__ read it."""
    degree = 1 << (_FIELD_BITS * nvars) if nvars > 1 else 0
    fields = {}
    for i in range(1, nvars + 1):
        shift = _FIELD_BITS * (nvars - i)
        fields[str(i)] = (shift, degree + (1 << shift), f"t{i}")
    return fields


def parse_polynomial(text, nvars):
    """Parse the polynomial text syntax; raises ParseError with a column.

    _scan builds the polynomial.  Text that it refuses goes to _walk, which
    raises the ParseError of the first fault.
    """
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
    poly = _scan(text, nvars)
    if type(poly) is int:
        _walk(text, nvars, poly)
        raise AssertionError(f"the term scan refused text in the grammar: {text[:60]!r}")
    return poly


def _scan(text, nvars):
    """The Polynomial of text; if the grammar refuses text, an offset where
    _walk can start: the start of the term before the one refused.

    One _TERM_RE match reads each term with its first factor, and a findall
    the factors after it, if any, into a packed key (only a later factor can
    carry a key field past MAX_EXPONENT); the numerators are summed over one
    common denominator.  The walk starts a term early because a term that
    _TERM_RE reads can end where the grammar reads on into a fault, as
    ``3*t1`` in ``3*t1 *``.
    """
    fields = _var_fields(nvars)
    match = _TERM_RE.match
    findall = _FACTOR_RE.findall
    end = len(text)
    acc = {}
    get = acc.get
    den = 1
    prev = pos = 0
    try:
        while True:
            m = match(text, pos)
            sign, num, q, v, e, rest = m.groups()
            if pos and not sign:
                return prev
            if v:
                field = fields.get(v) or fields.get(str(int(v)))  # t01 is t1
                e = int(e) if e else 1
                if not field or e > MAX_EXPONENT:
                    return prev
                key = e * field[1]
                for v, e in findall(rest) if rest else ():
                    field = fields.get(v) or fields.get(str(int(v)))
                    e = int(e) if e else 1
                    if not field or e > MAX_EXPONENT:
                        return prev
                    shift, step, _name = field
                    key += e * step
                    if (key >> shift) & _FIELD_MASK > MAX_EXPONENT:
                        return prev
            elif num:
                key = 0
            else:
                return prev
            c = int(num) if num else 1
            if sign == "-":
                c = -c
            if q:
                q = int(q)
                if not q:
                    return prev
                if den % q:
                    grown = math.lcm(den, q)
                    up = grown // den
                    for k in acc:
                        acc[k] *= up
                    den = grown
                c *= den // q
            elif den != 1:
                c *= den
            acc[key] = get(key, 0) + c
            prev, pos = pos, m.end()
            if pos == end:
                return _collect(nvars, den, acc)
    except ValueError:  # a literal past the int-string limit
        return prev


def _tokenize(text, start=0):
    """(kind, value, column) per token of text[start:], one at a time; a
    token fault raises its ParseError when the walk reaches it."""
    for m in _TOKEN_RE.finditer(text, start):
        col = m.start() + 1
        if m.group(1) is not None:
            yield ("int", _int_literal(m.group(1), f"column {col}: "), col)
        elif m.group(2) is not None:
            yield ("var", _int_literal(m.group(2), f"column {col}: "), col)
        elif m.group(3) is not None:
            yield ("op", m.group(3), col)
        else:
            raise ParseError(f"column {col}: unexpected character {m.group(4)!r}")


def _token_fault(text, start):
    """Raise the ParseError of the first token fault in text[start:], as
    _tokenize would reach it, if there is one.

    Two regex searches find the first character no token starts with and the
    first digit run past the int-string limit, so a long line is not
    tokenized to learn that it has no token fault.
    """
    bad = _UNEXPECTED_RE.search(text, start)
    limit = sys.get_int_max_str_digits()
    run = limit and re.compile(rf"(?<![0-9])[0-9]{{{limit + 1}}}").search(text, start)
    if run:
        # the digits of t<i> belong to a token that starts at the t
        at = run.start() - (text[run.start() - 1 : run.start()] == "t")
        if not bad or at < bad.start():
            _int_literal(run.group(), f"column {at + 1}: ")
    if bad:
        raise ParseError(f"column {bad.start() + 1}: unexpected character {bad.group()!r}")


def _walk(text, nvars, start=0):
    """Raise the ParseError of the first fault in text, walking its tokens
    by the grammar; return if there is none.  Builds no polynomial.

    The walk reads text[start:], where start is 0 or the start of a term
    whose sign follows terms that the grammar accepts, so a fault in
    text[:start], token fault or not, is impossible.  A token fault anywhere
    outranks a grammar fault; past that check the tokens are read one at a
    time, up to the first fault.
    """
    _token_fault(text, start)
    tokens = _tokenize(text, start)
    end = ("end", None, len(text) + 1)
    tok = next(tokens, end)

    def peek():
        return tok

    def take():
        nonlocal tok
        out, tok = tok, next(tokens, end)
        return out

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

    def parse_term():
        exps = [0] * nvars
        kind, val, col = peek()
        have_any = False
        if kind == "int":
            take()
            have_any = True
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                kind2, val2, col2 = take()
                if kind2 != "int":
                    raise ParseError(f"column {col2}: expected a denominator")
                if val2 == 0:
                    raise ParseError(f"column {col2}: zero denominator")
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                parse_factor(exps)
            elif peek()[0] == "var":
                parse_factor(exps)
        elif kind == "var":
            parse_factor(exps)
            have_any = True
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            parse_factor(exps)
        if not have_any:
            kind, val, col = peek()
            raise ParseError(f"column {col}: expected a term")

    if start == 0:
        if tok is end:
            raise ParseError("empty polynomial")
        kind, val, col = peek()
        if kind == "op" and val in "+-":
            take()
        parse_term()
    while tok is not end:
        kind, val, col = take()
        if kind != "op" or val not in "+-":
            raise ParseError(f"column {col}: expected '+' or '-' between terms")
        parse_term()
