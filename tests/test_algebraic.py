"""Exact arithmetic kernel: root isolation, field ops, comparisons."""

import functools
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qslice import algebraic
from qslice.algebraic import (
    AlgebraicError,
    AlgebraicNumber,
    MixedField,
    MultipleRoots,
    NoRoot,
    NonSquareFree,
    Ordering,
    algebraic_from_poly,
    bonacci_root,
    compare,
    compare_reals,
    enclose,
    refine,
)

# first 40 decimals, literals independent of the code under test
GOLDEN_40 = Fraction("1.6180339887498948482045868343656381177203")
TRIBONACCI_40 = Fraction("1.8392867552141611325518525646532866004241")


def multinacci_poly(k: int) -> list[int]:
    # x^k - x^(k-1) - ... - x - 1, ascending coefficients
    return [-1] * k + [1]


def _mp_root_in(coeffs, lo, hi) -> Fraction:
    """Independent high-precision oracle for the real root in [lo, hi]."""
    import mpmath

    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=300, extraprec=300)
        hits = [
            mpmath.re(r)
            for r in roots
            if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40 and lo <= mpmath.re(r) <= hi
        ]
        assert len(hits) == 1
        scaled = int(mpmath.floor(hits[0] * mpmath.mpf(10) ** 40))
    return Fraction(scaled, 10**40)


def test_golden_ratio_isolation():
    a = algebraic_from_poly([-1, -1, 1], 1, 2)
    lo, hi = refine(a, Fraction(1, 10**30))
    assert hi - lo <= Fraction(1, 10**30)
    assert lo <= GOLDEN_40 <= hi


def test_tribonacci_isolation():
    a = algebraic_from_poly(multinacci_poly(3), 1, 2)
    lo, hi = refine(a, Fraction(1, 10**30))
    assert lo <= TRIBONACCI_40 <= hi


@pytest.mark.parametrize("k", range(2, 13))
def test_multinacci_roots_against_mpmath(k):
    a = algebraic_from_poly(multinacci_poly(k), 1, 2)
    # bonacci_root skips the factoring that built a: Brauer's irreducibility
    assert bonacci_root(k) == a
    lo, hi = refine(a, Fraction(1, 10**35))
    oracle = _mp_root_in(multinacci_poly(k), 1, 2)
    slack = Fraction(1, 10**39)
    assert lo - slack <= oracle <= hi + slack


@pytest.mark.parametrize("k", range(2, 13))
def test_multinacci_defect_identity(k):
    # the gap below 2 is exactly the k-th inverse power: 2 - q = q^(-k)
    q = algebraic_from_poly(multinacci_poly(k), 1, 2).gen()
    assert 2 - q == q ** (-k)


def test_non_square_free_rejected():
    with pytest.raises(NonSquareFree):
        algebraic_from_poly([1, 2, 1], -2, 0)


def test_no_root_rejected():
    with pytest.raises(NoRoot):
        algebraic_from_poly([-2, 0, 1], 2, 3)


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots):
        algebraic_from_poly([2, -3, 1], 0, 3)
    with pytest.raises(MultipleRoots):
        algebraic_from_poly([-2, 0, 1], -2, 2)


def test_reducible_input_stores_irreducible_factor():
    # (x^2 - 2)(x - 3): square-free but reducible; the sqrt(2) factor owns
    # the root in (1, 2), and exact zero-testing must see q^2 - 2 == 0
    a = algebraic_from_poly([6, -2, -3, 1], 1, 2)
    assert a.degree == 2
    g = a.gen()
    assert g * g == 2
    assert (g * g - 2).is_zero()


def test_rational_fast_path():
    a = algebraic_from_poly([-3, 2], 0, 2)
    assert a.is_rational
    assert a.rational_value == Fraction(3, 2)
    g = a.gen()
    assert g * g == Fraction(9, 4)
    assert (1 / g).as_fraction() == Fraction(2, 3)


def test_compare_reals_orders_multinacci_family():
    roots = [algebraic_from_poly(multinacci_poly(k), 1, 2) for k in range(2, 11)]
    for a, b in zip(roots, roots[1:]):
        assert compare_reals(a, b) == Ordering.Less
    two = AlgebraicNumber.from_rational(2)
    assert compare_reals(roots[-1], two) == Ordering.Less


def test_compare_reals_locates_rational_between_roots():
    q = AlgebraicNumber.from_rational(Fraction(1999, 1000))
    q9 = algebraic_from_poly(multinacci_poly(9), 1, 2)
    q10 = algebraic_from_poly(multinacci_poly(10), 1, 2)
    assert compare_reals(q, q9) == Ordering.Greater
    assert compare_reals(q, q10) == Ordering.Less
    assert compare_reals(q, AlgebraicNumber.from_rational(Fraction(1999, 1000))) == Ordering.Equal


def test_mixed_field_rejected():
    phi = algebraic_from_poly([-1, -1, 1], 1, 2).gen()
    tri = algebraic_from_poly(multinacci_poly(3), 1, 2).gen()
    with pytest.raises(MixedField):
        phi + tri
    with pytest.raises(MixedField):
        compare(phi, tri)


def test_refinement_only_narrows():
    a = algebraic_from_poly(multinacci_poly(3), 1, 2)
    lo1, hi1 = refine(a, Fraction(1, 100))
    lo2, hi2 = refine(a, Fraction(1, 10**12))
    assert lo1 <= lo2 and hi2 <= hi1
    lo3, hi3 = a.interval
    assert lo3 == lo2 and hi3 == hi2


small_fracs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=16
)


@pytest.fixture(scope="module")
def tri_base():
    return algebraic_from_poly(multinacci_poly(3), 1, 2)


@settings(max_examples=60, deadline=None)
@given(cs=st.tuples(small_fracs, small_fracs, small_fracs),
       ds=st.tuples(small_fracs, small_fracs, small_fracs),
       es=st.tuples(small_fracs, small_fracs, small_fracs))
def test_ring_laws(cs, ds, es):
    base = algebraic_from_poly(multinacci_poly(3), 1, 2)
    a, b, c = base.element(cs), base.element(ds), base.element(es)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    if not a.is_zero():
        assert a * a.inverse() == base.one()


@settings(max_examples=60, deadline=None)
@given(cs=st.tuples(small_fracs, small_fracs, small_fracs),
       ds=st.tuples(small_fracs, small_fracs, small_fracs))
def test_comparison_trichotomy(cs, ds):
    base = algebraic_from_poly(multinacci_poly(3), 1, 2)
    a, b = base.element(cs), base.element(ds)
    rels = [a < b, a == b, a > b]
    assert sum(rels) == 1
    order = compare(a, b)
    expected = [Ordering.Less, Ordering.Equal, Ordering.Greater][rels.index(True)]
    assert order == expected


def test_sign_of_zero_difference(tri_base):
    g = tri_base.gen()
    assert (g - g).sign() == 0
    assert ((g ** 3) - (g ** 2 + g + 1)).is_zero()


def test_float_approximation(tri_base):
    g = tri_base.gen()
    assert abs(float(g * g) - float(TRIBONACCI_40) ** 2) < 1e-12


ENCLOSE_BASES = {
    **{f"bonacci:{k}": (tuple(multinacci_poly(k)), 1, 2) for k in range(2, 7)},
    "two-orbit cubic": ((1, -2, -1, 1), Fraction(3, 2), Fraction(19, 10)),
}


@functools.cache
def _refined_base(name):
    base = algebraic_from_poly(*ENCLOSE_BASES[name])
    base.refine_to(Fraction(1, 10**200))
    return base


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ENCLOSE_BASES)), grid=st.sampled_from([10, 10**18, 10**40]),
       rational=st.booleans(), data=st.data())
def test_enclose_is_the_grid_cell_of_the_value(name, grid, rational, data):
    fresh, refined = algebraic_from_poly(*ENCLOSE_BASES[name]), _refined_base(name)
    n = 1 if rational else fresh.degree
    coeffs = data.draw(st.lists(small_fracs, min_size=n, max_size=n))
    x = fresh.element(coeffs)
    cell = enclose(x, grid)
    # the answer does not depend on how far the base was refined before
    assert enclose(refined.element(coeffs), grid) == cell
    if not any(coeffs[1:]):
        assert cell == (coeffs[0], coeffs[0])
    else:
        cell_lo, cell_hi = cell
        assert cell_hi - cell_lo == Fraction(1, grid)
        assert (cell_lo * grid).denominator == 1
        assert x > cell_lo and x < cell_hi


def test_enclose_of_a_number_is_that_of_its_generator():
    q = algebraic_from_poly(multinacci_poly(4), 1, 2)
    assert enclose(q, 10**18) == enclose(q.gen(), 10**18)
    r = AlgebraicNumber.from_rational(Fraction(7, 5))
    assert enclose(r, 10) == (Fraction(7, 5), Fraction(7, 5))


# -- integer kernels against the rational recurrences they replaced ----------


def _reference_interval_eval(coeffs, lo, hi):
    vlo = vhi = Fraction(0)
    for c in reversed(coeffs):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def _reference_mul(base, a, b):
    # schoolbook product, then long division by the minimal polynomial
    d = base.degree
    p = [Fraction(c) for c in base.min_poly]
    prod = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        f = prod[k] / p[-1]
        for i, c in enumerate(p):
            prod[k - d + i] -= f * c
    return tuple(prod[:d])


mixed_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=60) | st.just(Fraction(0))

KERNEL_BASES = {
    "tribonacci": ((-1, -1, -1, 1), 1, 2),
    "two-orbit cubic": ((1, -2, -1, 1), Fraction(3, 2), Fraction(19, 10)),
    "non-monic quadratic": ((-3, 0, 2), 1, 2),
    "non-monic cubic": ((-2, -3, 0, 3), 1, 2),
}


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(mixed_fracs, min_size=1, max_size=6), lo=mixed_fracs,
       width=st.sampled_from([Fraction(0)]) | mixed_fracs.map(abs))
@example(coeffs=[Fraction(1, 3), Fraction(0), Fraction(-5, 7), Fraction(2)],
         lo=Fraction(3, 2), width=Fraction(2, 5))
@example(coeffs=[Fraction(-1), Fraction(1, 6), Fraction(0)], lo=Fraction(-19, 10), width=Fraction(1, 3))
@example(coeffs=[Fraction(7, 4), Fraction(-2, 9)], lo=Fraction(-3, 7), width=Fraction(0))
def test_interval_kernel_matches_rational_recurrence(coeffs, lo, width):
    # the integer kernel takes numerators over one denominator for both the
    # polynomial and the interval
    nums, den = algebraic._common_denominator(coeffs)
    ends, ends_den = algebraic._common_denominator((lo, lo + width))
    vlo, vhi, scale = algebraic._interval_eval(nums, ends, ends_den)
    assert scale > 0
    expected = _reference_interval_eval(coeffs, lo, lo + width)
    assert (Fraction(vlo, scale * den), Fraction(vhi, scale * den)) == expected


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_BASES)), data=st.data())
def test_mul_kernel_matches_rational_reduction(name, data):
    poly, lo, hi = KERNEL_BASES[name]
    base = algebraic_from_poly(poly, lo, hi)
    vec = st.lists(mixed_fracs, min_size=base.degree, max_size=base.degree)
    a, b = data.draw(vec), data.draw(vec)
    prod = base.element(a) * base.element(b)
    assert prod.coeffs == _reference_mul(base, a, b)
    # sign and enclosure drive the same bisections as the rational route
    ref_base = algebraic_from_poly(poly, lo, hi)
    eps = Fraction(1, 10**6)
    while True:
        rlo, rhi = _reference_interval_eval(prod.coeffs, *ref_base.interval)
        if rhi - rlo <= eps:
            break
        ref_base._bisect()
    assert prod.to_interval(eps) == (rlo, rhi)
    assert base.interval == ref_base.interval
    expected = 0 if prod.is_zero() else 1 if rlo > 0 else -1 if rhi < 0 else None
    if expected is not None:
        assert prod.sign() == expected


@settings(max_examples=200, deadline=None)
@given(poly=st.lists(st.integers(-20, 20), min_size=2, max_size=8).filter(lambda p: p[-1] != 0),
       x=mixed_fracs)
@example(poly=[-1, -1, 1], x=Fraction(3, 2))
@example(poly=[-2, 0, 1], x=Fraction(0))
@example(poly=[1, -2, 1], x=Fraction(1))  # a root
def test_sign_at_matches_rational_evaluation(poly, x):
    # the integer sign that drives bisection, against Horner on fractions
    value = _ref_eval([Fraction(c) for c in poly], x)
    assert algebraic._sign_at(poly, x.numerator, x.denominator) == (value > 0) - (value < 0)


# -- fresh-base set-up on integers, against the routes it replaced -----------

SETUP_BASES = {
    **{f"bonacci:{k}": (tuple(multinacci_poly(k)), 1, 2) for k in range(2, 13)},
    "two-orbit cubic": ((1, -2, -1, 1), Fraction(3, 2), Fraction(19, 10)),
    "2x^2 - 3": ((-3, 0, 2), 1, 2),
    "3x^3 - 3x - 2": ((-2, -3, 0, 3), 1, 2),
    "2x^2 - 2x - 1": ((-1, -2, 2), 1, 2),
}
setup_bases = st.sampled_from(sorted(SETUP_BASES))


def _fresh(name):
    """A new base object, as a caller with a new base has one: every
    polynomial above is irreducible, with one root in its interval."""
    poly, lo, hi = SETUP_BASES[name]
    return AlgebraicNumber(poly, Fraction(lo), Fraction(hi))


def _reference_halve(poly, lo, hi):
    """One halving of the old kind: a Fraction midpoint, and the half on
    which the polynomial, evaluated on Fractions, changes sign."""
    def value(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    mid = (lo + hi) / 2
    v = value(mid)
    if v == 0:
        return mid, mid
    return (lo, mid) if (value(lo) > 0) != (v > 0) else (mid, hi)


@settings(max_examples=150, deadline=None)
@given(name=setup_bases, pre=st.integers(0, 40), bits=st.integers(0, 200), odd=st.integers(1, 9))
@example(name="bonacci:12", pre=0, bits=200, odd=1)
@example(name="2x^2 - 2x - 1", pre=7, bits=200, odd=3)
@example(name="3x^3 - 3x - 2", pre=1, bits=84, odd=1)
def test_halving_matches_fraction_bisection(name, pre, bits, odd):
    # pre halvings leave the base partly refined (none: fresh); then eps,
    # which need not be a power of two, goes down to 2^-200
    base, (lo, hi) = _fresh(name), _fresh(name).interval
    poly = base.min_poly
    base._bisect(pre)
    for _ in range(pre):
        lo, hi = _reference_halve(poly, lo, hi)
    assert base.interval == (lo, hi)
    eps = Fraction(odd, 1 << bits)
    while hi - lo > eps:
        lo, hi = _reference_halve(poly, lo, hi)
    assert base.refine_to(eps) == (lo, hi)
    assert base.interval == (lo, hi)


def test_refinement_to_a_width_of_zero_is_rejected():
    # an irrational value has no enclosure of width 0, so no halving ends
    q = _fresh("bonacci:3")
    for eps in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            q.refine_to(eps)
        with pytest.raises(ValueError):
            q.gen().to_interval(eps)
        with pytest.raises(ValueError):
            refine(q.element([1, Fraction(1, 2)]), eps)
    # a rational value meets eps = 0 exactly
    r = Fraction(7, 5)
    assert AlgebraicNumber.from_rational(r).refine_to(0) == (r, r)
    assert q.element([r]).to_interval(0) == (r, r)


@settings(max_examples=150, deadline=None)
@given(name=setup_bases, c0=mixed_fracs, c1=mixed_fracs.filter(bool))
@example(name="bonacci:10", c0=Fraction(0), c1=Fraction(1))  # 1/q
@example(name="bonacci:10", c0=Fraction(-1), c1=Fraction(1))  # 1/(q - 1)
@example(name="2x^2 - 2x - 1", c0=Fraction(2), c1=Fraction(-1))  # 1/(2 - q)
def test_linear_inverse_matches_extended_euclid(name, c0, c1):
    base = _fresh(name)
    x = base.element([c0, c1])
    inv = x.inverse()
    assert inv.coeffs == _reference_inverse(base, x.coeffs)
    assert _reference_mul(base, x.coeffs, inv.coeffs) == (1,) + (0,) * (base.degree - 1)


@settings(max_examples=150, deadline=None)
@given(name=setup_bases, data=st.data())
def test_multiplication_rows_match_field_products(name, data):
    base = _fresh(name)
    vec = st.lists(mixed_fracs, min_size=base.degree, max_size=base.degree)
    s, v = base.element(data.draw(vec)), data.draw(vec)
    rows, den = algebraic.multiplication_rows(s)
    # integer rows over one denominator, in lowest terms
    assert den > 0 and gcd(den, *(c for row in rows for c in row)) == 1
    product = tuple(sum(r * c for r, c in zip(row, v)) / den for row in rows)
    assert product == (s * base.element(v)).coeffs


@settings(max_examples=100, deadline=None)
@given(name=setup_bases, c=mixed_fracs)
def test_sign_of_a_rational_value(name, c):
    base = _fresh(name)
    x = base.element([c])
    assert x.sign() == (c > 0) - (c < 0)
    assert (0 <= x, x <= 1) == (c >= 0, c <= 1)
    # read off the constant term: the base was not halved
    assert base.interval == _fresh(name).interval


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def low_degree_products(draw):
    coef = st.integers(-12, 12) | st.integers(-(10**30), 10**30)
    lead = coef.filter(bool)
    degree = draw(st.integers(1, 3))
    p = [1]
    while len(p) - 1 < degree:
        k = draw(st.integers(1, degree - len(p) + 1))
        p = _poly_product(p, draw(st.lists(coef, min_size=k, max_size=k)) + [draw(lead)])
    return p


def _from_poly_outcome(p, lo, hi):
    try:
        a = algebraic_from_poly(p, lo, hi)
    except AlgebraicError as e:
        return type(e)
    return a.min_poly, a.interval


def _sympy_factors(coeffs):
    """The reference factoring: sympy's factor_list, each factor primitive
    with positive lead."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coeffs)), x, domain="ZZ").factor_list()
    return [algebraic._primitive(int(c) for c in reversed(f.all_coeffs())) for f, _ in factors]


@settings(max_examples=200, deadline=None)
@given(p=low_degree_products(), lo=st.integers(-4, 4), width=st.integers(1, 8))
@example(p=[-(10**40 + 3) * 7, 0, 0, 7 * (10**40 + 1)], lo=0, width=2)
@example(p=[6, -2, -3, 1], lo=1, width=1)
@example(p=_poly_product([-3, 7], [1, -2, 5]), lo=0, width=1)
def test_low_degree_factoring_matches_sympy(p, lo, width):
    # every degree factors on one path; sympy is the reference
    with mock.patch.object(algebraic, "_irreducible_factors", _sympy_factors):
        expected = _from_poly_outcome(p, lo, lo + width)
    assert _from_poly_outcome(p, lo, lo + width) == expected
    if expected is not NonSquareFree:
        prim = algebraic._primitive(p)
        assert sorted(algebraic._irreducible_factors(prim)) == sorted(_sympy_factors(prim))


@st.composite
def square_free_products(draw):
    """Primitive square-free integer polynomials of degree 1..12 with
    positive lead, as products of factors of degree 1..4 with small or
    10^30-sized coefficients."""
    coef = st.integers(-12, 12) | st.integers(-(10**30), 10**30)
    degree = draw(st.integers(1, 12))
    p = [1]
    while len(p) - 1 < degree:
        k = draw(st.integers(1, min(4, degree - len(p) + 1)))
        p = _poly_product(p, draw(st.lists(coef, min_size=k, max_size=k)) + [draw(coef.filter(bool))])
    p = algebraic._primitive(p)
    assume(len(algebraic._sturm_chain(p)[-1]) == 1)
    return p


def _examples(*ps):
    """An @example for each polynomial in ps."""
    return lambda test: functools.reduce(lambda t, p: example(p=p)(t), ps, test)


@settings(max_examples=150, deadline=None)
@given(p=square_free_products())
@example(p=(1, 0, -10, 0, 1))  # irreducible, but it splits modulo every prime
@example(p=algebraic._primitive(_poly_product(_poly_product([-2, 0, 1], [-3, 0, 1]), [-5, 0, 1])))
@example(p=algebraic._primitive(_poly_product([-1, 1, 1], [2, 0, 105])))  # lead 105 = 3 * 5 * 7
@example(p=(1, -1, -1, 1, -2, 1))  # the degree-5 golden base, irreducible
@example(p=(-(10**40 + 3), 0, 0, 10**40 + 1))
@_examples(*(tuple(multinacci_poly(k)) for k in range(2, 13)))
def test_irreducible_factors_match_sympy(p):
    assert sorted(algebraic._irreducible_factors(p)) == sorted(_sympy_factors(p))


# -- field elements on integers, against Fraction tuples ---------------------

FIELD_BASES = {
    **SETUP_BASES,
    # rational bases, as from_rational builds them
    "3/2": ((-3, 2), Fraction(3, 2), Fraction(3, 2)),
    "1999/1000": ((-1999, 1000), Fraction(1999, 1000), Fraction(1999, 1000)),
}
field_bases = st.sampled_from(sorted(FIELD_BASES))


def _fresh_field(name):
    poly, lo, hi = FIELD_BASES[name]
    return AlgebraicNumber(poly, Fraction(lo), Fraction(hi))


@pytest.mark.parametrize("name", sorted(FIELD_BASES))
def test_constants_match_their_coefficient_vectors(name):
    base = _fresh_field(name)
    gen = [base.rational_value] if base.is_rational else [0, 1]
    for got, coeffs in ((base.zero(), []), (base.one(), [1]), (base.gen(), gen)):
        want = base.element(coeffs)
        assert (got.nums, got.den) == (want.nums, want.den)


@settings(max_examples=200, deadline=None)
@given(name=field_bases, data=st.data())
@example(name="2x^2 - 3", data=None)
@example(name="3x^3 - 3x - 2", data=None)
@example(name="2x^2 - 2x - 1", data=None)
@example(name="3/2", data=None)
def test_shift_steps_match_multiplication_rows(name, data):
    # q * v and v / q in O(d) give the vector and the denominator of the
    # dense product with the matrices of q and 1/q
    base = _fresh_field(name)
    d, g = base.degree, base.gen()
    if data is None:  # explicit examples: every unit vector, over 7
        cases = [([int(i == j) for i in range(d)], 7) for j in range(d)]
    else:
        v = data.draw(st.lists(st.integers(-10**30, 10**30), min_size=d, max_size=d))
        cases = [(v, data.draw(st.integers(1, 10**12)))]
    for step, s in ((algebraic.times_q, g), (algebraic.over_q, 1 / g)):
        rows, mden = algebraic.multiplication_rows(s)
        for v, den in cases:
            dense = [sum(r * c for r, c in zip(row, v)) for row in rows]
            assert step(base.min_poly, v, den) == (dense, den * mden)
            assert algebraic.FieldElement(base, dense, den * mden) == s * algebraic.FieldElement(base, v, den)


def _reference_inverse(base, a):
    """u with a * u = 1, by Gauss-Jordan elimination on the matrix of
    multiplication by a, built column by column from the schoolbook
    product: a route that shares nothing with the element's inverse."""
    d = base.degree
    units = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    cols = [_reference_mul(base, a, e) for e in units]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[-1] for row in rows)


def _reference_sign(poly, interval, coeffs):
    """The sign by the old route: interval Horner on Fractions over the
    interval, halved one step at a time, until the enclosure excludes 0.
    Returns the sign and the interval it ended on."""
    lo, hi = interval
    if not any(coeffs[1:]):
        return (coeffs[0] > 0) - (coeffs[0] < 0), (lo, hi)
    while True:
        vlo, vhi = _reference_interval_eval(coeffs, lo, hi)
        if vlo > 0 or vhi < 0:
            return (1 if vlo > 0 else -1), (lo, hi)
        lo, hi = _reference_halve(poly, lo, hi)


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert len(x.nums) == x.base.degree


@st.composite
def field_vectors(draw, degree):
    """Coefficient vectors of one degree: full, linear (the synthetic
    division route), rational, or zero."""
    kind = draw(st.sampled_from(["full", "linear", "rational", "zero"]))
    size = {"full": degree, "linear": min(2, degree), "rational": 1, "zero": 0}[kind]
    cs = draw(st.lists(mixed_fracs, min_size=size, max_size=size))
    return tuple(cs) + (Fraction(0),) * (degree - size)


@settings(max_examples=150, deadline=None)
@given(name=field_bases, data=st.data())
@example(name="bonacci:12", data=None)
@example(name="2x^2 - 2x - 1", data=None)
@example(name="1999/1000", data=None)
def test_field_arithmetic_matches_fraction_tuples(name, data):
    base = _fresh_field(name)
    d = base.degree
    if data is None:  # explicit examples: q and 1 - 2/3 q
        a, b = (0, 1)[:d] + (0,) * (d - 2), (1, Fraction(-2, 3))[:d] + (0,) * (d - 2)
        a, b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    else:
        a, b = data.draw(field_vectors(d)), data.draw(field_vectors(d))
    x, y = base.element(a), base.element(b)
    results = {
        "+": (x + y, tuple(u + v for u, v in zip(a, b))),
        "-": (x - y, tuple(u - v for u, v in zip(a, b))),
        "*": (x * y, _reference_mul(base, a, b)),
        "neg": (-x, tuple(-u for u in a)),
        "int -": (2 - x, (2 - a[0],) + tuple(-u for u in a[1:])),
        "fraction +": (x + Fraction(1, 3), (a[0] + Fraction(1, 3),) + a[1:]),
    }
    if any(b):
        inv = _reference_inverse(base, b)
        results["inverse"] = (y.inverse(), inv)
        results["/"] = (x / y, _reference_mul(base, a, inv))
    for op, (got, expected) in results.items():
        _assert_canonical(got)
        assert got.coeffs == expected, op
    _assert_canonical(x)
    assert x.coeffs == a
    # equal values have equal fields and hashes, whatever route built them
    same = (x + y) - y
    assert same == x and (same.nums, same.den) == (x.nums, x.den)
    assert hash(same) == hash(x)
    assert (x == y) == (a == b)
    assert x.is_zero() == (not any(a))


@settings(max_examples=200, deadline=None)
@given(name=field_bases, data=st.data(), r=mixed_fracs | st.sampled_from([Fraction(0), Fraction(3, 2)]),
       top=st.integers(-5, 5))
@example(name="2x^2 - 2x - 1", data=None, r=Fraction(-6, 5), top=1)
@example(name="3x^3 - 3x - 2", data=None, r=Fraction(0), top=-2)
@example(name="3/2", data=None, r=Fraction(3, 2), top=0)
def test_rational_factor_products_match_convolution(name, data, r, top):
    # a factor with no coefficient past the constant scales the other's
    # numerators; the result is the convolution's, in canonical form
    base = _fresh_field(name)
    d = base.degree
    if data is None:  # explicit examples: 2/3 - 4/9 q + ... over 9, to cancel
        a = tuple(Fraction((-2) ** (i + 1), 3 ** (i + 1)) for i in range(d))
    else:
        a = data.draw(field_vectors(d))
    x = base.element(a)
    rv = base.rational(r)
    rvec = (r,) + (Fraction(0),) * (d - 1)
    cases = {
        "x * r": (x * r, _reference_mul(base, a, rvec)),
        "r * x": (r * x, _reference_mul(base, rvec, a)),
        "x * rv": (x * rv, _reference_mul(base, a, rvec)),
        "rv * x": (rv * x, _reference_mul(base, rvec, a)),
        # r times the other's den: the product's numerators share a factor
        # with its den, which the canonical form divides out
        "x * den": (x * x.den, _reference_mul(base, a, (Fraction(x.den),) + rvec[1:])),
    }
    if r:
        cases["x / r"] = (x / r, _reference_mul(base, a, (1 / r,) + rvec[1:]))
    if any(a):
        cases["r / x"] = (r / x, _reference_mul(base, rvec, _reference_inverse(base, a)))
    if d > 1:
        # a constant and a top coefficient alone: convolved unless top is 0
        yvec = rvec[:-1] + (Fraction(top),)
        cases["x * (r + top q^(d-1))"] = (x * base.element(yvec), _reference_mul(base, a, yvec))
    for op, (got, expected) in cases.items():
        _assert_canonical(got)
        want = base.element(expected)
        assert (got.nums, got.den) == (want.nums, want.den), op


@settings(max_examples=200, deadline=None)
@given(name=field_bases, data=st.data(), pre=st.integers(0, 30))
@example(name="bonacci:12", data=None, pre=0)
def test_sign_matches_fraction_bisection(name, data, pre):
    # sign() and sign_of() halve the shared interval exactly as interval
    # Horner on Fractions does, from a fresh or partly refined base
    base = _fresh_field(name)
    base._bisect(pre)
    d = base.degree
    if data is None:  # q - 1 - ... - q^(d-2), small and positive
        a = (Fraction(-1),) * (d - 1) + (Fraction(1),) if d > 1 else (Fraction(1),)
    else:
        a = data.draw(field_vectors(d))
    sign, interval = _reference_sign(base.min_poly, base.interval, a)
    assert base.element(a).sign() == sign
    assert base.interval == interval
    # sign_of reads integers alone: any positive multiple of a has a's sign
    nums, den = algebraic._common_denominator(a)
    scaled = _fresh_field(name)
    scaled._bisect(pre)
    assert scaled.sign_of([c * 3 * den for c in nums]) == sign
    assert scaled.interval == interval


@settings(max_examples=100, deadline=None)
@given(name=field_bases, bits=st.integers(0, 120), pre=st.integers(0, 100))
@example(name="bonacci:12", bits=64, pre=0)
@example(name="1999/1000", bits=64, pre=0)
@example(name="near-zero cubic", bits=0, pre=0)  # the interval straddles 0
@example(name="-cbrt 2", bits=12, pre=0)  # the square reverses the ends
def test_power_brackets_hold_each_power(name, bits, pre):
    if name == "near-zero cubic":
        # x^3 + 1000x - 1 has one real root, near 0.001
        base = AlgebraicNumber((-1, 1000, 0, 1), Fraction(-1, 100), Fraction(1, 64))
    elif name == "-cbrt 2":
        base = AlgebraicNumber((2, 0, 0, 1), Fraction(-2), Fraction(-1))
    else:
        base = _fresh_field(name)
    base._bisect(pre)
    lows, width = base.power_brackets(bits)
    assert len(lows) == base.degree and width >= 0
    if name == "near-zero cubic" and bits == 0:
        lo, hi = base.interval
        assert lo < 0 < hi and lows[2] == 0
    for j, a in enumerate(lows):
        # 2^bits q^j lies in [a_j, a_j + w]: an enclosure of q^j decides it
        lo, hi = base.element([0] * j + [1]).to_interval(Fraction(1, 1 << (bits + 40)))
        assert a <= lo * (1 << bits) and hi * (1 << bits) <= a + width
    if name in SETUP_BASES:
        # q < 2 and the interval is 2^-(bits + 2d) wide: each bracket is tight
        assert width <= 2
    # the table is kept: it still holds each power after the interval
    # narrows further, and 8 more bits get a table of their own
    base.refine_to(Fraction(1, 1 << 300))
    assert base.power_brackets(bits) == (lows, width)
    for b in (bits, bits + 8):
        lows, width = base.power_brackets(b)
        for j, a in enumerate(lows):
            lo, hi = base.element([0] * j + [1]).to_interval(Fraction(1, 1 << (b + 40)))
            assert a <= lo * (1 << b) and hi * (1 << b) <= a + width


def _halvings(base, eps):
    """The least n with width / 2^n <= eps: the halvings refine_to(eps)
    stands for."""
    lo, hi = base.interval
    n = 0
    while (hi - lo) / (1 << n) > eps:
        n += 1
    return n


@settings(max_examples=150, deadline=None)
@given(name=field_bases, pre=st.integers(0, 40), bits=st.integers(0, 300), odd=st.integers(1, 9))
@example(name="bonacci:10", pre=0, bits=84, odd=1)  # power_brackets(64) on a fresh base
@example(name="bonacci:12", pre=0, bits=300, odd=1)
@example(name="two-orbit cubic", pre=3, bits=150, odd=7)
@example(name="3x^3 - 3x - 2", pre=40, bits=41, odd=9)  # a single halving left
def test_jumps_reach_the_halving_interval(name, pre, bits, odd):
    # quadratic interval refinement ends on the very interval that halving
    # one step at a time reaches, in lowest terms, from a fresh or partly
    # refined base
    jumped, halved = _fresh_field(name), _fresh_field(name)
    jumped._bisect(pre)
    halved._bisect(pre)
    eps = Fraction(odd, 1 << bits)
    halved._bisect(_halvings(halved, eps))
    assert jumped.refine_to(eps) == halved.interval
    assert jumped._ends == halved._ends


@pytest.mark.parametrize("root", [Fraction(3, 2), Fraction(13, 8), Fraction(4, 3)])
def test_degree_one_refinement_stops_on_a_grid_root(root):
    # a root of a degree-1 polynomial may be a midpoint: there halving
    # stops with (r, r), and refine_to does the same; off the grid it ends
    # on the cell that holds r
    poly = (-root.numerator, root.denominator)
    base, halved = (AlgebraicNumber(poly, Fraction(1), Fraction(2)) for _ in range(2))
    halved._bisect(30)
    assert base.refine_to(Fraction(1, 1 << 30)) == halved.interval
    lo, hi = halved.interval
    if root.denominator in (2, 8):
        assert lo == hi == root
    else:
        assert lo < root < hi and hi - lo == Fraction(1, 1 << 30)


def _count_evaluations(monkeypatch, poly):
    """A list that gains an entry each time poly is evaluated at a point."""
    calls = []
    value_at = algebraic._value_at

    def counted(p, n, m):
        if tuple(p) == tuple(poly):
            calls.append(Fraction(n, m))
        return value_at(p, n, m)

    monkeypatch.setattr(algebraic, "_value_at", counted)
    return calls


def test_fresh_power_brackets_take_few_evaluations(monkeypatch):
    # from (1, 2) to a width of 2^-(64 + 20) is 84 halvings, 85 evaluations
    # of min_poly one step at a time; the jumps take at most 30
    halved, base = _fresh("bonacci:10"), _fresh("bonacci:10")
    calls = _count_evaluations(monkeypatch, base.min_poly)
    halved._bisect(84)
    assert len(calls) == 85
    calls.clear()
    base.power_brackets(64)
    assert 0 < len(calls) <= 30
    assert base.interval == halved.interval


def test_bracket_table_belongs_to_its_object(monkeypatch):
    base = _fresh("bonacci:10")
    table = base.power_brackets(64)
    calls = _count_evaluations(monkeypatch, base.min_poly)
    # asked again, the object reads its table and evaluates nothing
    before = base.interval
    assert base.power_brackets(64) == table
    assert calls == [] and base.interval == before
    # an equal base built separately refines and computes its own
    twin = _fresh("bonacci:10")
    twin_table = twin.power_brackets(64)
    assert calls and twin_table == table and twin_table is not table
    assert twin.interval == base.interval


@settings(max_examples=200, deadline=None)
@given(name=field_bases, r=mixed_fracs | st.sampled_from([Fraction(1), Fraction(2)]),
       pre=st.integers(0, 20))
@example(name="bonacci:2", r=Fraction(1), pre=0)  # r is the interval's end
@example(name="two-orbit cubic", r=Fraction(17, 10), pre=0)  # inside: one sign decides
@example(name="3/2", r=Fraction(3, 2), pre=0)
def test_compare_rational_matches_compare_reals(name, r, pre):
    base = _fresh_field(name)
    base._bisect(pre)
    before = base.interval
    expected = compare_reals(_fresh_field(name), AlgebraicNumber.from_rational(r))
    assert base.compare_rational(r) == expected
    # decided without halving
    assert base.interval == before


# -- integer polynomials, against Fraction polynomial arithmetic --------------


def _ref_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _ref_deriv(p):
    return tuple(c * i for i, c in enumerate(p) if i > 0)


def _ref_divmod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(_ref_trim(a)) - 1 >= db and _ref_trim(a):
        a = list(_ref_trim(a))
        if len(a) - 1 < db:
            break
        k = len(a) - 1 - db
        f = a[-1] / lb
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a = a[:-1]
    return _ref_trim(q), _ref_trim(a)


def _ref_sturm_chain(p):
    """Sturm chain by long division over the rationals."""
    p = tuple(map(Fraction, p))
    chain = [_ref_trim(p), _ref_trim(_ref_deriv(p))]
    while chain[-1] and len(chain[-1]) > 1:
        _, r = _ref_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return chain


def _ref_sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _ref_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_count_roots(p, lo, hi):
    chain = _ref_sturm_chain(p)
    return _ref_sign_changes(chain, lo) - _ref_sign_changes(chain, hi)


def _ref_gcd(a, b):
    a, b = _ref_trim(a), _ref_trim(b)
    while b:
        _, r = _ref_divmod(a, b)
        a, b = b, r
    return a


def _ref_poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ref_trim(out)


def _ref_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _ref_trim([x - y for x, y in zip(a, b)])


def _ref_euclid_inverse(a, modulus):
    """u with a * u = 1 mod modulus, by extended Euclid over the rationals,
    padded to len(modulus) - 1 coefficients."""
    modulus = tuple(map(Fraction, modulus))
    r0, r1 = _ref_trim(modulus), _ref_trim(tuple(map(Fraction, a)))
    s0, s1 = (), (Fraction(1),)
    while len(r1) > 1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_poly_sub(s0, _ref_poly_mul(q, s1))
        assert r1, "not invertible"
    u = _ref_trim(tuple(x / r1[0] for x in s1))
    return (u + (Fraction(0),) * len(modulus))[: len(modulus) - 1]


def _ref_rational_roots(p):
    """Rational roots by Sturm counts on the monic transform, over the
    rationals."""
    n, c = len(p) - 1, p[-1]
    monic = tuple(Fraction(pi * c ** (n - 1 - i)) for i, pi in enumerate(p[:-1])) + (Fraction(1),)
    chain = _ref_sturm_chain(monic)
    bound = 1 + max(abs(m) for m in monic[:-1])
    roots, todo = [], [(-bound, bound)]
    while todo:
        a, b = todo.pop()
        if _ref_sign_changes(chain, a - Fraction(1, 2)) == _ref_sign_changes(chain, b + Fraction(1, 2)):
            continue
        if a < b:
            m = (a + b) // 2
            todo += [(a, m), (m + 1, b)]
        elif _ref_eval(monic, Fraction(a)) == 0:
            roots.append(Fraction(a, c))
    return roots


small_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=8).filter(lambda p: p[-1] != 0)


@st.composite
def integer_polys(draw):
    """Integer polynomials of degree 1..7: plain ones, ones with a repeated
    factor (not square-free) and ones with rational roots, some with large
    coefficients."""
    kind = draw(st.sampled_from(["plain", "square", "rooted"]))
    if kind == "plain":
        return draw(small_polys)
    if kind == "square":
        f = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(lambda p: p[-1] != 0))
        rest = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda p: p[-1] != 0))
        return _poly_product(_poly_product(f, f), rest)
    p = draw(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=3).filter(lambda p: p[-1] != 0))
    for _ in range(draw(st.integers(1, 4 - len(p) + 1))):
        p = _poly_product(p, [-draw(st.integers(-60, 60)), draw(st.integers(1, 30))])
    return p


def _assert_positive_multiple(a, ref):
    # a == t * ref for some rational t > 0
    assert len(a) == len(ref)
    assert (a[-1] > 0) == (ref[-1] > 0)
    assert all(x * ref[-1] == r * a[-1] for x, r in zip(a, ref))


@settings(max_examples=300, deadline=None)
@given(p=integer_polys(), lo=mixed_fracs, width=mixed_fracs.filter(bool).map(abs))
@example(p=[-1, -1, 1], lo=Fraction(1), width=Fraction(1))
@example(p=[-2, 0, 1], lo=Fraction(-2), width=Fraction(4))
@example(p=[1, 2, 1], lo=Fraction(-3), width=Fraction(2))  # (x + 1)^2
@example(p=[0, 0, -3, 5], lo=Fraction(-1, 7), width=Fraction(1))  # a root at 0, twice
def test_sturm_chain_matches_fraction_chain(p, lo, width):
    # each member is a positive multiple of the rational chain's, so the
    # sign changes, and so the root counts, are the same
    chain = algebraic._sturm_chain(p)
    ref = _ref_sturm_chain(p)
    assert len(chain) == len(ref)
    for member, ref_member in zip(chain, ref):
        assert all(isinstance(c, int) for c in member)
        _assert_positive_multiple(member, ref_member)
    hi = lo + width
    for x in (lo, hi):
        assert algebraic._sign_changes(chain, x.numerator, x.denominator) == _ref_sign_changes(ref, x)
    if _ref_eval([Fraction(c) for c in p], lo) != 0:
        count = algebraic._count_roots(p, (lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
        assert count == _ref_count_roots(p, lo, hi)


@settings(max_examples=200, deadline=None)
@given(p=integer_polys(), lo=st.integers(-4, 4), width=st.integers(1, 8))
@example(p=[1, 2, 1], lo=-2, width=2)
@example(p=_poly_product([2, -3, 1], [2, -3, 1]), lo=0, width=3)  # gcd of degree 2
def test_square_free_verdict_matches_fraction_gcd(p, lo, width):
    fp = [Fraction(c) for c in p]
    degree = len(_ref_gcd(fp, _ref_deriv(fp))) - 1
    # the chain's last member is gcd(p, p') up to a scalar
    assert len(algebraic._sturm_chain(p)[-1]) - 1 == degree
    if degree > 0:
        with pytest.raises(NonSquareFree, match=f"gcd with derivative has degree {degree}$"):
            algebraic_from_poly(p, lo, lo + width)
    else:
        assert _from_poly_outcome(p, lo, lo + width) is not NonSquareFree


@settings(max_examples=200, deadline=None)
@given(p=integer_polys())
@example(p=[0, 1])  # the root 0
@example(p=_poly_product([3, -7], [5, 0, -6]))  # 3/7 with a negative lead
@example(p=[-(10**40 + 3) * 7, 0, 0, 7 * (10**40 + 1)])
def test_rational_roots_match_fraction_route(p):
    # the rational roots are the linear factors of p's square-free part
    fp = [Fraction(c) for c in p]
    square_free, _ = _ref_divmod(fp, _ref_gcd(fp, _ref_deriv(fp)))
    prim = algebraic._primitive(algebraic._common_denominator(square_free)[0])
    roots = [(-f[0], f[1]) for f in algebraic._irreducible_factors(prim) if len(f) == 2]
    for n, m in roots:
        assert m > 0 and gcd(n, m) == 1
    assert sorted(Fraction(n, m) for n, m in roots) == sorted(_ref_rational_roots(p))


@st.composite
def inverse_vectors(draw, base):
    """Coefficient vectors for the general inverse: full, sparse (the
    constant term often 0, so the elimination swaps rows), and near-singular
    (N q^j minus its integer part: a value in (0, 1) with large
    coefficients)."""
    d = base.degree
    kind = draw(st.sampled_from(["full", "sparse", "near-singular"]))
    if kind == "full":
        return tuple(draw(st.lists(mixed_fracs, min_size=d, max_size=d)))
    if kind == "sparse":
        cs = draw(st.lists(st.sampled_from([Fraction(0)]) | mixed_fracs, min_size=d, max_size=d))
        return tuple(cs)
    j, n = draw(st.integers(0, d - 1)), draw(st.integers(1, 10**12))
    x = base.element([0] * j + [n])
    lo, _ = enclose(x, 1)
    return (x - lo).coeffs


@settings(max_examples=200, deadline=None)
@given(name=field_bases, data=st.data())
@example(name="bonacci:12", data=None)
@example(name="two-orbit cubic", data=None)
def test_general_inverse_matches_extended_euclid(name, data):
    base = _fresh_field(name)
    if data is None:  # q^2 - 1, and 2q - 3/5 q^2 with no constant term: a row swap
        vectors = [(-1, 0, 1), (0, 2, Fraction(-3, 5))]
    else:
        vectors = [data.draw(inverse_vectors(base))]
    for v in vectors:
        v = tuple(map(Fraction, v)) + (Fraction(0),) * (base.degree - len(v))
        if not any(v):
            continue
        inv = base.element(v).inverse()
        _assert_canonical(inv)
        assert inv.coeffs == _ref_euclid_inverse(v, base.min_poly)
        assert inv.coeffs == _reference_inverse(base, v)


def _ref_compare_reals(a, b):
    """compare_reals reading the interval Fractions, halving both until
    they separate."""
    if a == b:
        return Ordering.Equal
    while True:
        (alo, ahi), (blo, bhi) = a.interval, b.interval
        if ahi < blo:
            return Ordering.Less
        if bhi < alo:
            return Ordering.Greater
        a._bisect()
        b._bisect()


@settings(max_examples=200, deadline=None)
@given(a_name=field_bases, b_name=field_bases, a_pre=st.integers(0, 30), b_pre=st.integers(0, 30))
@example(a_name="bonacci:11", b_name="bonacci:12", a_pre=0, b_pre=0)
@example(a_name="3/2", b_name="2x^2 - 2x - 1", a_pre=0, b_pre=5)
def test_compare_reals_matches_interval_fractions(a_name, b_name, a_pre, b_pre):
    pairs = []
    for _ in range(2):
        a, b = _fresh_field(a_name), _fresh_field(b_name)
        a._bisect(a_pre)
        b._bisect(b_pre)
        pairs.append((a, b))
    (a, b), (ra, rb) = pairs
    assert compare_reals(a, b) == _ref_compare_reals(ra, rb)
    # and both halve the same intervals on the way
    assert (a.interval, b.interval) == (ra.interval, rb.interval)


@settings(max_examples=100, deadline=None)
@given(name=setup_bases, a_pre=st.integers(0, 40), b_pre=st.integers(0, 40))
def test_equality_of_numbers_on_integer_ends(name, a_pre, b_pre):
    a, b = _fresh(name), _fresh(name)
    a._bisect(a_pre)
    b._bisect(b_pre)
    assert a == b
    # the hull holds one root, by the Fraction count too
    (alo, ahi), (blo, bhi) = a.interval, b.interval
    assert _ref_count_roots(a.min_poly, min(alo, blo), max(ahi, bhi)) == 1


def test_equality_tells_roots_of_one_polynomial_apart():
    poly = (1, -2, -1, 1)  # three real roots, near -1.25, 0.45 and 1.80
    big = AlgebraicNumber(poly, Fraction(3, 2), Fraction(19, 10))
    small = AlgebraicNumber(poly, Fraction(0), Fraction(1))
    assert big != small and big == AlgebraicNumber(poly, Fraction(1), Fraction(2))
    assert compare_reals(small, big) == Ordering.Less


def test_rational_coefficients_are_not_truncated():
    # 2x^2 - 2x - 3 given with its denominators: the root (1 + sqrt 7) / 2
    q = algebraic_from_poly([Fraction(-3, 2), -1, 1], 1, 2)
    assert q.min_poly == (-3, -2, 2)
    g = q.gen()
    assert 2 * g * g - 2 * g - 3 == 0
    assert algebraic_from_poly([Fraction(1, 3), Fraction(-1, 2)], 0, 1).rational_value == Fraction(2, 3)
