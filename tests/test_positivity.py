"""Tests for the exact PSD oracle, grid sampling, and bundle equivalence.

Property tests use hypothesis with derandomized, bounded examples, so every
run sees the same cases.
"""

import random
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydiag import certificates, diagonal, positivity
from polydiag.arith import Polynomial, parse_polynomial
from polydiag.diagonal import diagonalization_bundle
from polydiag.errors import DimensionCap, NotSymmetric
from polydiag.polymat import PolyMatrix
from polydiag.positivity import (
    GridSpec,
    RationalMatrix,
    _axis_values,
    _grid_sweep,
    _psd_int,
    check_bundle_equivalence,
    eval_matrix,
    generate_grid,
    psd_on_grid,
    psd_rational,
)

from helpers import (
    count_calls,
    psd_berkowitz,
    psd_ldlt,
    psd_principal_minors,
    rand_fraction,
    rand_rational_symmetric,
)

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def P(text, nvars=1):
    return parse_polynomial(text, nvars)


def M(rows, nvars=1):
    return PolyMatrix.from_rows([[P(s, nvars) for s in row] for row in rows])


def R(rows):
    return RationalMatrix(len(rows), [Fraction(v) for row in rows for v in row])


# -- psd_rational ---------------------------------------------------------------


def test_psd_examples():
    assert psd_rational(R([[1, 0], [0, 1]]))
    assert psd_rational(R([[2, 1], [1, 2]]))
    assert not psd_rational(R([[1, 2], [2, 1]]))
    assert psd_rational(R([[0]]))
    assert not psd_rational(R([[-1]]))


def test_psd_needs_all_minors():
    # positive leading minors are not enough when the matrix is singular:
    # diag entries 0 force the whole row to vanish
    assert not psd_rational(R([[0, 1], [1, 0]]))
    assert not psd_rational(R([[1, 0, 2], [0, 0, 0], [2, 0, 1]]))


def test_psd_gram_matrices():
    rng = random.Random(501)
    for _ in range(500):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        g = [[rand_fraction(rng) for _ in range(n)] for _ in range(k)]
        prod = [
            [sum(g[l][i] * g[l][j] for l in range(k)) for j in range(n)]
            for i in range(n)
        ]
        assert psd_rational(RationalMatrix(n, [v for row in prod for v in row]))


def test_psd_agrees_with_ldlt_oracle():
    rng = random.Random(502)
    for _ in range(400):
        n = rng.randint(1, 5)
        a = rand_rational_symmetric(rng, n)
        assert psd_rational(a) == psd_ldlt(a)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def singular_symmetric(draw):
    """A rank-deficient Gram matrix, maybe with one diagonal entry nudged
    down and maybe with one row and column set to zero."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n - 1))
    row = st.lists(small_fractions, min_size=n, max_size=n)
    g = draw(st.lists(row, min_size=k, max_size=k))
    a = [[sum((g[l][i] * g[l][j] for l in range(k)), Fraction(0)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        a[i][i] -= draw(st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        for j in range(n):
            a[i][j] = a[j][i] = Fraction(0)
    return RationalMatrix(n, [v for r in a for v in r])


@BOUNDED
@given(singular_symmetric())
def test_psd_equals_principal_minor_definition(a):
    expected = psd_principal_minors(a)
    assert psd_rational(a) == expected == psd_ldlt(a)


@st.composite
def integer_symmetric(draw):
    """A symmetric integer matrix, n 1-12, entries up to about 2^64: random,
    or a Gram matrix G^t G with G of 0 to n rows (rank-deficient below n)
    and maybe one column of G repeated (a zero pivot with nonzero pivots
    after it); then maybe a diagonal entry nudged down and maybe a row and
    column set to zero."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        entry = st.integers(-(2**64), 2**64)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(entry)
    else:
        bound = draw(st.sampled_from([2, 2**31]))
        k = draw(st.integers(0, n))
        row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
        g = draw(st.lists(row, min_size=k, max_size=k))
        if n > 1 and draw(st.booleans()):
            j = draw(st.integers(0, n - 2))
            for r in g:
                r[j + 1] = r[j]
        a = [[sum(r[i] * r[j] for r in g) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        a[i][i] -= draw(st.sampled_from([1, 2**32, 2**64]))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        for j in range(n):
            a[i][j] = a[j][i] = 0
    return a


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_symmetric())
@example([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
@example([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[4, 2, 2], [2, 1, 1], [2, 1, 3]])
def test_psd_int_equals_berkowitz_and_minors(rows):
    expected = psd_berkowitz(rows)
    # only the upper triangle is read: the rows come with zeros below it
    assert _psd_int([[0] * k + row[k:] for k, row in enumerate(rows)]) == expected
    if len(rows) <= 7:
        assert psd_principal_minors(R(rows)) == expected


def test_psd_rational_takes_one_bareiss_step_per_nonzero_pivot(monkeypatch):
    steps = count_calls(monkeypatch, "_bareiss_step", (positivity,))
    assert psd_rational(R([[2, 0, 0], [0, 0, 0], [0, 0, 3]]))
    assert [args[1] for args in steps] == [0, 2]  # the zero row is skipped
    steps.clear()
    g = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]  # invertible, so every pivot is positive
    assert psd_rational(R([[sum(r[i] * r[j] for r in g) for j in range(3)] for i in range(3)]))
    assert [args[1] for args in steps] == [0, 1, 2]


def test_psd_permutation_invariant():
    rng = random.Random(503)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = rand_rational_symmetric(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        b = RationalMatrix(n, [a[perm[i], perm[j]] for i in range(n) for j in range(n)])
        assert psd_rational(a) == psd_rational(b)


def test_psd_dimension_cap():
    eye13 = RationalMatrix(
        13, [Fraction(int(i == j)) for i in range(13) for j in range(13)]
    )
    with pytest.raises(DimensionCap):
        psd_rational(eye13)
    eye12 = RationalMatrix(
        12, [Fraction(int(i == j)) for i in range(12) for j in range(12)]
    )
    assert psd_rational(eye12)


def test_psd_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        psd_rational(R([[1, 2], [0, 1]]))


def test_rational_matrix_validation():
    with pytest.raises(ValueError):
        RationalMatrix(2, [1, 2, 3])
    with pytest.raises(ValueError):
        RationalMatrix(0, [])
    m = R([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        m[2, 0]


# -- grids ------------------------------------------------------------------------


def test_grid_three_points():
    spec = GridSpec(((Fraction(-1), Fraction(1), 3),))
    assert generate_grid(spec) == ((Fraction(-1),), (Fraction(0),), (Fraction(1),))


def test_grid_corners():
    spec = GridSpec(((0, 1, 2), (0, 1, 2)))
    pts = generate_grid(spec)
    assert pts == (
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    )


def test_grid_single_point_axis():
    spec = GridSpec(((Fraction(5), Fraction(9), 1),))
    assert generate_grid(spec) == ((Fraction(5),),)


def test_grid_fractional_steps():
    spec = GridSpec(((0, 1, 5),))
    vals = [pt[0] for pt in generate_grid(spec)]
    assert vals == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


@BOUNDED
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=0, max_value=60, max_denominator=12),
    st.integers(1, 40),
)
def test_axis_values_equal_rational_steps(low, width, count):
    high = low + width
    (values,) = _axis_values(GridSpec(((low, high, count),)))
    if count == 1:
        assert values == [low]
    else:
        assert values == [low + k * (high - low) / (count - 1) for k in range(count)]
    assert all(type(x) is Fraction for x in values)


def test_grid_default_shape():
    spec = GridSpec.uniform(2)
    assert spec.axes == ((Fraction(-10), Fraction(10), 21),) * 2
    assert spec.total_points() == 441


def test_grid_cap():
    spec = GridSpec(((0, 1, 400), (0, 1, 400)))
    assert spec.total_points() == 160_000
    with pytest.raises(ValueError, match="cap"):
        generate_grid(spec)
    with pytest.raises(ValueError, match="^grid has 100001 points, exceeding the cap 100000$"):
        generate_grid(GridSpec(((0, 1, 100_001),)))
    generate_grid(GridSpec(((0, 1, 100_000),)))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(())
    with pytest.raises(ValueError):
        GridSpec(((1, 0, 3),))
    with pytest.raises(ValueError):
        GridSpec(((0, 1, 0),))


@pytest.mark.parametrize("count", [2.9, True, "3", Fraction(3)])
def test_grid_count_must_be_an_int(count):
    # int() would have made 2.9 a 2-point axis and let True and "3" pass
    with pytest.raises(ValueError, match="^axis count must be an integer, got "):
        GridSpec(((0, 1, count),))


# -- matrix evaluation -------------------------------------------------------------


def test_eval_matrix():
    a = M([["t1", "1"], ["1", "t1^2"]])
    at = eval_matrix(a, (Fraction(3),))
    assert at[0, 0] == 3 and at[0, 1] == 1 and at[1, 1] == 9


def test_eval_matrix_validation():
    a = M([["t1", "1"], ["1", "t1^2"]])
    with pytest.raises(ValueError):
        eval_matrix(a, (1, 2))
    with pytest.raises(ValueError):
        eval_matrix(M([["t1", "1"]]), (1,))


# -- psd_on_grid --------------------------------------------------------------------


def test_psd_on_grid_scalar():
    report = psd_on_grid(M([["t1"]]), GridSpec(((-1, 1, 3),)))
    assert report.total_points == 3
    assert report.psd_count == 2
    assert report.non_psd_points == ((Fraction(-1),),)
    assert not report.all_psd()


def test_psd_on_grid_identity():
    report = psd_on_grid(PolyMatrix.identity(3, 1), GridSpec(((-5, 5, 11),)))
    assert report.all_psd()
    assert report.total_points == 11


def test_psd_on_grid_gram_square():
    g = M([["t1", "1"], ["1", "t1"]])
    report = psd_on_grid(g.transpose() @ g, GridSpec.uniform(1))
    assert report.all_psd()


def test_psd_on_grid_nvars_mismatch():
    with pytest.raises(ValueError):
        psd_on_grid(M([["t1"]]), GridSpec.uniform(2))
    with pytest.raises(ValueError, match="square"):
        psd_on_grid(M([["t1", "1"]]), GridSpec.uniform(1))


@st.composite
def grid_cases(draw):
    """(matrix, spec, diagonal polynomials, block): a 1-3 variable symmetric
    matrix, a Gram matrix G^t G or one with a polynomial added to its corner
    entry, over a grid whose steps are 3/5 or 1/6 and whose coordinates may
    be negative; the diagonal polynomials may repeat each other or the
    matrix's entries, and the sweep runs in blocks of the given size."""
    nvars = draw(st.integers(1, 3))
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars),
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        min_size=1,
        max_size=3,
    ).map(lambda terms: Polynomial(nvars, terms))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["symmetric", "gram", "shifted gram"]))
    if kind == "symmetric":
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(polys)
        a = PolyMatrix.from_rows(rows)
    else:
        g = PolyMatrix.from_rows(
            [[draw(polys) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
        )
        a = g.transpose() @ g
        if kind == "shifted gram":
            corner = PolyMatrix.zeros(n, n, nvars).entries[1:]
            a = a + PolyMatrix(n, n, (draw(polys),) + corner)
    axes = []
    for _ in range(nvars):
        step = draw(st.sampled_from([Fraction(3, 5), Fraction(1, 6)]))
        low = Fraction(draw(st.integers(-8, 2)), draw(st.sampled_from([1, 2, 5])))
        count = draw(st.integers(1, {1: 8, 2: 5, 3: 3}[nvars]))
        axes.append((low, low + (count - 1) * step, count))
    diag = draw(st.lists(st.one_of(polys, st.sampled_from(a.entries)), min_size=1, max_size=4))
    diag += draw(st.lists(st.sampled_from(diag), max_size=2))
    return a, GridSpec(tuple(axes)), diag, draw(st.sampled_from([1, 2, 3, 1024]))


@BOUNDED
@given(grid_cases())
def test_grid_sweeps_equal_pointwise_oracle(case):
    a, spec, diag, block = case
    points = generate_grid(spec)
    oracle = {s: psd_rational(eval_matrix(a, s)) for s in points}
    flags = {s: all(p.evaluate(s) >= 0 for p in diag) for s in points}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(positivity, "_LINE_BLOCK", block)
        report = psd_on_grid(a, spec)
        assert report.total_points == len(points)
        assert report.non_psd_points == tuple(s for s in points if not oracle[s])
        assert list(_grid_sweep(a, diag, spec)) == [(s, oracle[s], flags[s]) for s in points]


def _sweeps(a, spec):
    """psd_on_grid and the sweep check_bundle_equivalence runs, each giving its point count."""
    return (
        lambda: psd_on_grid(a, spec).total_points,
        lambda: len(list(_grid_sweep(a, [Polynomial.one(a.nvars)], spec))),
    )


def test_grid_error_order():
    eye13 = PolyMatrix.identity(13, 1)
    # eye13 with a first row of 1 + t1: not symmetric at any point t1 >= 0
    lopsided13 = PolyMatrix(13, 13, (P("1 + t1"),) * 13 + eye13.entries[13:])
    # the grid cap comes before everything else
    for sweep in _sweeps(lopsided13, GridSpec(((0, 1, 100_001),))):
        with pytest.raises(ValueError, match="exceeding the cap"):
            sweep()
    # then the size of the integers the points would need, before any power
    # is taken: t1^4096 at coordinates of about 2660 bits, on 20 points
    hostile = PolyMatrix(13, 13, (P("1 + t1^4096"),) + lopsided13.entries[1:])
    too_big = (
        r"^grid evaluation needs about \d+ integer bits \(\d+ per point\), "
        r"exceeding the bound 16777216$"
    )
    for sweep in _sweeps(hostile, GridSpec(((-1, 10**800, 20),))):
        with pytest.raises(ValueError, match=too_big):
            sweep()
    # then symmetry, at the first point where A(s) is not symmetric
    for sweep in _sweeps(lopsided13, GridSpec(((0, 1, 3),))):
        with pytest.raises(NotSymmetric):
            sweep()
    # then the dimension cap
    for sweep in _sweeps(eye13, GridSpec(((0, 0, 1),))):
        with pytest.raises(DimensionCap, match="capped at dimension 12, got 13"):
            sweep()


def test_grid_symmetric_at_some_points_only():
    # both are symmetric at t = 0 and t = 1 only; in the 3 x 3 the differing
    # pair sits on the triangle's second row
    for a in (
        M([["1", "t1"], ["t1^2", "1"]]),
        M([["1", "0", "0"], ["0", "1", "t1"], ["0", "t1^2", "1"]]),
    ):
        for sweep in _sweeps(a, GridSpec(((0, 1, 2),))):
            assert sweep() == 2
        for sweep in _sweeps(a, GridSpec(((0, 2, 3),))):
            with pytest.raises(NotSymmetric):
                sweep()


# -- the sweep line by line, in blocks ----------------------------------------


def _pointwise(a, extra, spec):
    """The (point, psd, extra_ok) triples the sweep must give, by Fractions."""
    return [
        (s, psd_rational(eval_matrix(a, s)), all(p.evaluate(s) >= 0 for p in extra))
        for s in generate_grid(spec)
    ]


def _swept(a, extra, spec):
    """(the triples the sweep yielded, the exception it raised or None)."""
    triples = []
    try:
        for triple in _grid_sweep(a, extra, spec):
            triples.append(triple)
    except (NotSymmetric, DimensionCap) as exc:
        return triples, exc
    return triples, None


def test_line_sweep_long_lines():
    """Lines longer than the block the module uses, on one and two axes; the
    extras are a11, a22, a repeat and a polynomial of their own."""
    a = M([["t1^2 - 1/4", "t1"], ["t1", "2 - t1"]])
    extra = [a[0, 0], a[1, 1], a[0, 0], P("t1 - 1/2")]
    spec = GridSpec(((-3, 3, 2 * positivity._LINE_BLOCK + 5),))
    assert list(_grid_sweep(a, extra, spec)) == _pointwise(a, extra, spec)
    a2 = M([["t1^2 + t2", "t1*t2"], ["t1*t2", "1 - t2^2"]], nvars=2)
    spec2 = GridSpec(((-1, 1, 2), (-2, 2, positivity._LINE_BLOCK + 77)))
    extra2 = [a2[1, 1], P("t1 - t2", 2)]
    assert list(_grid_sweep(a2, extra2, spec2)) == _pointwise(a2, extra2, spec2)


def _only_at(k, count):
    """t1 plus a polynomial that vanishes at t1 = 0, 1, ..., count - 1 except
    at t1 = k: t1 there, and only there."""
    p = P("1")
    for j in range(count):
        if j != k:
            p = p * P(f"t1 - {j}")
    return P("t1") + p


def test_line_sweep_asymmetric_in_second_block(monkeypatch):
    """A(s) fails to be symmetric at one point only, the third of the second
    block: NotSymmetric is raised there, after every earlier triple."""
    monkeypatch.setattr(positivity, "_LINE_BLOCK", 4)
    spec = GridSpec(((0, 9, 10),))
    for n, (i, j) in ((2, (0, 1)), (3, (1, 2))):
        rows = [[P("1 + t1") if r == c else P("0") for c in range(n)] for r in range(n)]
        rows[i][j], rows[j][i] = P("t1"), _only_at(6, 10)
        a = PolyMatrix.from_rows(rows)
        extra = [a[0, 0], P("t1 - 5")]
        triples, exc = _swept(a, extra, spec)
        assert isinstance(exc, NotSymmetric)
        assert triples == _pointwise(a, extra, GridSpec(((0, 5, 6),)))
    # on two axes, from the first point of the second line on: (1, 0)
    a = M([["1", "t2"], ["t2 + t1*t2 - 3*t1", "1"]], nvars=2)
    triples, exc = _swept(a, (), GridSpec(((0, 1, 2), (0, 5, 6))))
    assert isinstance(exc, NotSymmetric)
    assert triples == _pointwise(a, (), GridSpec(((0, 0, 1), (0, 5, 6))))


def test_line_sweep_dimension_cap_order(monkeypatch):
    """At n = 13 the cap is raised at the first point the sweep decides: the
    grid cap and a non-symmetric first point come before it, a later
    non-symmetric point, even in another block, after it."""
    monkeypatch.setattr(positivity, "_LINE_BLOCK", 4)
    eye = PolyMatrix.identity(13, 1).entries
    later = PolyMatrix(13, 13, (eye[0], P("t1")) + eye[2:13] + (_only_at(6, 10),) + eye[14:])
    first = PolyMatrix(13, 13, (eye[0], P("1")) + eye[2:])
    for sweep in _sweeps(later, GridSpec(((0, 9, 10),))):
        with pytest.raises(DimensionCap, match="capped at dimension 12, got 13"):
            sweep()
    for sweep in _sweeps(first, GridSpec(((0, 9, 10),))):
        with pytest.raises(NotSymmetric):
            sweep()
    for sweep in _sweeps(later, GridSpec(((0, 9, 100_001),))):
        with pytest.raises(ValueError, match="exceeding the cap"):
            sweep()


def test_line_sweep_memory_is_bounded():
    """A 100,000-point line is evaluated a block at a time: the sweep's peak
    stays within 1.7 times that of the grid's own points, generate_grid's,
    where evaluating the whole line at once reaches about 1.9 times.  Both
    reach their peak before the third block, so the sweep is run that far."""
    a = M([["t1^2 + 1", "t1"], ["t1", "1"]])
    spec = GridSpec(((-10, 10, 100_000),))

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    baseline = peak(lambda: generate_grid(spec))
    sweep = _grid_sweep(a, (), spec)
    swept = peak(lambda: deque(islice(sweep, 3 * positivity._LINE_BLOCK), maxlen=0))
    assert swept <= 1.7 * baseline, (swept, baseline)


# -- check_bundle_equivalence --------------------------------------------------------


def test_equivalence_identity():
    a = PolyMatrix.identity(2, 1)
    report = check_bundle_equivalence(a, diagonalization_bundle(a), GridSpec.uniform(1))
    assert report.total_points == 21
    assert report.agreements == 21
    assert report.disagreements == ()


def test_equivalence_rank_one_square():
    a = M([["t1^2", "t1"], ["t1", "1"]])
    spec = GridSpec(((Fraction(-10), Fraction(10), 41),))
    report = check_bundle_equivalence(a, diagonalization_bundle(a), spec)
    assert report.total_points == 41
    assert report.disagreements == ()


def test_equivalence_nowhere_psd():
    a = M([["1", "2"], ["2", "1"]])
    bundle = diagonalization_bundle(a)
    report = check_bundle_equivalence(a, bundle, GridSpec.uniform(1, count=5))
    assert report.disagreements == ()
    # the subject is nowhere PSD, so both sides said no everywhere
    oracle_says = [
        psd_rational(eval_matrix(a, pt))
        for pt in generate_grid(GridSpec.uniform(1, count=5))
    ]
    assert not any(oracle_says)


def test_equivalence_sign_change():
    a = M([["t1", "1"], ["1", "t1"]])
    report = check_bundle_equivalence(a, diagonalization_bundle(a), GridSpec.uniform(1))
    assert report.disagreements == ()
    flags = {
        pt[0]: psd_rational(eval_matrix(a, pt))
        for pt in generate_grid(GridSpec.uniform(1))
    }
    # PSD exactly where t >= 1: needs t >= 0 and t^2 >= 1
    assert flags[Fraction(1)] and flags[Fraction(10)]
    assert not flags[Fraction(0)] and not flags[Fraction(-10)]


def test_equivalence_rejects_foreign_bundle():
    a = M([["t1", "1"], ["1", "t1"]])
    other = M([["t1", "0"], ["0", "t1"]])
    bundle = diagonalization_bundle(other)
    with pytest.raises(ValueError, match="does not verify"):
        check_bundle_equivalence(a, bundle, GridSpec.uniform(1))


def test_equivalence_verifies_a_produced_bundle_once(monkeypatch):
    a = M([["t1", "1"], ["1", "t1"]])
    calls = count_calls(monkeypatch, "diag_certificate_failures", (certificates, diagonal))
    bundle = diagonalization_bundle(a)
    report = check_bundle_equivalence(a, bundle, GridSpec.uniform(1, count=5))
    assert report.disagreements == ()
    assert len(calls) == len(bundle.branches) == 3


def test_equivalence_nvars_mismatch():
    a = M([["t1", "1"], ["1", "t1"]])
    with pytest.raises(ValueError):
        check_bundle_equivalence(a, diagonalization_bundle(a), GridSpec.uniform(2))


def test_equivalence_when_later_minors_vanish():
    # seed 7003, instance 32 of acceptance criterion 3.  A(0, 0) is not PSD,
    # but minors after the first vanish there; scaled by the product of all
    # minors (the standard form's D_p = w*M_p/M_(p-1)), every branch's D
    # would be >= 0 at (0, 0).  D_p = M_(p-1)*M_p carries no such factor.
    a = M(
        [
            ["5*t2^2", "2*t2^2", "-2*t2"],
            ["2*t2^2", "t2", "-t1^2"],
            ["-2*t2", "-t1^2", "2*t1*t2 + 2*t1 - 2"],
        ],
        nvars=2,
    )
    bundle = diagonalization_bundle(a)
    report = check_bundle_equivalence(a, bundle, GridSpec.uniform(2, count=5))
    assert report.total_points == 25
    assert report.disagreements == ()
    origin = (Fraction(0), Fraction(0))
    assert not psd_rational(eval_matrix(a, origin))
    assert any(
        entry.evaluate(origin) < 0
        for cert, _trace in bundle.branches
        for entry in cert.D.diagonal_entries()
    )
