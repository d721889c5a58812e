"""Polynomial layer: arithmetic, ordering, rendering, division, gcd."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gwpa.errors import AmbientMismatchError, GwpaError
from gwpa.parser import parse_polynomial
from gwpa.poisson import BaseDerivation
from gwpa.poly import (
    DEGREE_LIMIT,
    NEG_INF,
    PolyRing,
    Polynomial,
    _divmod,
    divides,
    exact_divide,
    monomials_up_to,
    render_polynomial,
    univariate_gcd,
)
from gwpa.quant import AffineSubstitution

from oracles import TuplePolynomial, dense_univariate_gcd, derivation_chain_rule
from sampling import random_polynomial


@pytest.fixture
def ring():
    return PolyRing(["C", "H"])


def test_coefficients_normalize_and_zero_terms_drop(ring):
    poly = Polynomial(ring, {(0, 1): Fraction(4, 2), (1, 0): 0})
    assert poly.terms() == {(0, 1): 2}
    assert isinstance(poly.coefficient((0, 1)), int)
    third = Polynomial(ring, {(0, 0): Fraction(1, 3)})
    assert isinstance(third.coefficient((0, 0)), Fraction)


def test_coefficient_rejects_a_tuple_of_the_wrong_length(ring):
    poly = ring.var("H") ** 2 + 3 * ring.var("C")
    assert poly.coefficient((0, 2)) == 1
    assert poly.coefficient((0, -1)) == 0
    assert poly.coefficient((0, DEGREE_LIMIT)) == 0
    for exps in ((2,), (0, 2, 0), ()):
        with pytest.raises(GwpaError, match="does not match 2 variables"):
            poly.coefficient(exps)


def test_exponents_must_be_integers(ring):
    C = ring.var("C")
    for exps in ((1.5, 0), (Fraction(3, 2), 0), (Fraction(1), 0), ("1", 0)):
        with pytest.raises(GwpaError, match="invalid exponent tuple"):
            ring.monomial(exps)
        with pytest.raises(GwpaError, match="invalid exponent tuple"):
            Polynomial(ring, {exps: 1})
        with pytest.raises(GwpaError, match="invalid exponent tuple"):
            C.coefficient(exps)
    assert ring.monomial((True, 0)) == C
    assert Polynomial(ring, {(True, False): 2}) == 2 * C
    assert C.coefficient((True, False)) == 1


def test_ring_rejects_bad_variable_names():
    with pytest.raises(GwpaError):
        PolyRing(["H", "H"])
    with pytest.raises(GwpaError):
        PolyRing(["2bad"])
    with pytest.raises(GwpaError):
        PolyRing([""])


def test_basic_arithmetic(ring):
    H = ring.var("H")
    C = ring.var("C")
    square = (H + 1) ** 2
    assert square == H * H + 2 * H + 1
    assert (square - H ** 2 - 2 * H - 1).is_zero
    assert (C * H) * 3 == C * (3 * H)
    assert (H / 2) * 2 == H
    assert H ** 0 == ring.one()


def test_mixed_scalar_coercion(ring):
    H = ring.var("H")
    assert H + Fraction(1, 2) == Fraction(1, 2) + H
    assert 2 - H == -(H - 2)
    assert Fraction(3, 4) * H == H * Fraction(3, 4)


def test_total_degree_and_zero_marker(ring):
    H = ring.var("H")
    C = ring.var("C")
    assert (C + H ** 3).total_degree == 3
    assert ring.one().total_degree == 0
    assert ring.zero().total_degree == NEG_INF


def test_weighted_degree_and_component(ring):
    H = ring.var("H")
    C = ring.var("C")
    poly = C - H ** 2 - H
    weights = (2, 1)
    assert poly.weighted_degree(weights) == 2
    assert poly.weighted_component(weights, 2) == C - H ** 2
    assert poly.weighted_component(weights, 1) == -H
    assert poly.weighted_component(weights, 5).is_zero
    assert ring.zero().weighted_degree(weights) == NEG_INF
    # the graded-lex largest monomial need not have the largest weight
    assert (C ** 3 + H ** 2).weighted_degree((1, 3)) == 6
    assert (C ** 3 + H ** 2).weighted_degree((2, 2)) == 6


def test_render_follows_graded_lex_descending(ring):
    H = ring.var("H")
    C = ring.var("C")
    poly = Fraction(1, 3) * C - 2 * H ** 2 - 1
    assert render_polynomial(poly) == "-2*H^2 + 1/3*C - 1"
    assert render_polynomial(ring.zero()) == "0"
    assert render_polynomial(-H) == "-H"
    assert str(C * H - C) == "C*H - C"


def test_render_refuses_coefficients_past_the_digit_limit(ring):
    limit = sys.get_int_max_str_digits()
    message = "more than %d digits" % limit
    for coeff in (10 ** limit, Fraction(1, 10 ** limit)):
        with pytest.raises(GwpaError, match=message):
            str(ring.monomial((1, 0), coeff))


def test_partial_derivative(ring):
    H = ring.var("H")
    C = ring.var("C")
    poly = H ** 3 + C * H + 2
    assert poly.partial("H") == 3 * H ** 2 + C
    assert poly.partial("C") == H
    with pytest.raises(GwpaError):
        poly.partial("Z")


def test_substitute_keeps_unmapped_variables(ring):
    H = ring.var("H")
    C = ring.var("C")
    shifted = (H ** 2 + C).substitute({"H": H - 1})
    assert shifted == H ** 2 - 2 * H + 1 + C


def test_embed_into_extended_ring(ring):
    big = ring.extended(["Z"])
    H = ring.var("H")
    image = (H + 1).embed(big)
    assert image.ring == big
    assert image == big.var("H") + 1
    renamed = (H + 1).embed(PolyRing(["K"]), rename={"H": "K"})
    assert renamed == PolyRing(["K"]).var("K") + 1


def test_affine_substitute_validates_images(ring):
    H = ring.var("H")
    C = ring.var("C")
    shift = AffineSubstitution.from_map(ring, {"H": H - 1})
    assert shift(H ** 2) == H ** 2 - 2 * H + 1
    assert shift(H + C) == H + C - 1  # unnamed variables stay fixed
    with pytest.raises(GwpaError, match="not affine"):
        AffineSubstitution.from_map(ring, {"H": H ** 2, "C": C})


def test_ambient_mismatch_raises(ring):
    other = PolyRing(["H"])
    with pytest.raises(AmbientMismatchError):
        ring.var("H") + other.var("H")


def test_univariate_gcd_frozen_cases():
    ring = PolyRing(["H1"])
    H = ring.var("H1")
    assert univariate_gcd(H ** 2, 2 * H, "H1") == H
    assert univariate_gcd(H ** 2 - H, 2 * H - 1, "H1") == ring.one()
    assert univariate_gcd(ring.zero(), ring.zero(), "H1").is_zero
    assert univariate_gcd(ring.const(6), H, "H1") == ring.one()
    cubic = (H - 1) ** 2 * (H + 2)
    assert univariate_gcd(cubic, cubic.partial("H1"), "H1") == H - 1


def test_univariate_gcd_rejects_multivariate(ring):
    H = ring.var("H")
    C = ring.var("C")
    with pytest.raises(GwpaError):
        univariate_gcd(H * C, H, "H")


def test_exact_division(ring):
    H = ring.var("H")
    C = ring.var("C")
    assert exact_divide(H ** 2 - 1, H - 1) == H + 1
    assert exact_divide(C * H + C, C) == H + 1
    assert exact_divide(H ** 2 + 1, H) is None
    assert divides(H - 1, H ** 3 - H ** 2 + H - 1)
    assert not divides(H + C, H ** 2)
    assert divides(H, ring.zero())
    assert exact_divide(H, ring.zero()) is None
    assert exact_divide(ring.zero(), ring.zero()) == ring.zero()


def test_divisibility_randomized(ring):
    rng = random.Random(101)
    for _ in range(60):
        f = random_polynomial(ring, rng, 2, 2)
        g = random_polynomial(ring, rng, 2, 2)
        if g.is_zero:
            continue
        product = f * g
        quotient = exact_divide(product, g)
        assert quotient == f


def test_monomials_up_to_order():
    ring = PolyRing(["H1", "H2"])
    got = monomials_up_to(ring, 2)
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    empty = PolyRing([])
    assert monomials_up_to(empty, 3) == [()]


def test_value_semantics_and_hash(ring):
    H = ring.var("H")
    again = PolyRing(["C", "H"])
    assert ring == again
    assert hash(ring) == hash(again)
    assert H == again.var("H")
    assert hash(H) == hash(again.var("H"))
    assert len({H, again.var("H")}) == 1


def test_exponent_limit_raises_instead_of_carrying(ring):
    H = ring.var("H")
    top = DEGREE_LIMIT - 1
    half = DEGREE_LIMIT // 2
    below = ring.monomial((0, top))
    assert top == 2 ** 32 - 1
    assert below.total_degree == top
    assert str(below) == "H^4294967295"
    assert str(ring.monomial((top - 5, 5), Fraction(-1, 2))) == "-1/2*C^4294967290*H^5"
    assert ring.monomial((0, half)) * ring.monomial((0, half - 1)) == below
    assert str(ring.monomial((half, 0)) * ring.monomial((0, half - 1))) == (
        "C^2147483648*H^2147483647"
    )
    assert below.partial("H") == ring.monomial((0, top - 1), top)
    with pytest.raises(GwpaError, match="exceeds the limit of 4294967295"):
        ring.monomial((0, DEGREE_LIMIT))
    with pytest.raises(GwpaError, match="total degree 4294967296"):
        Polynomial(ring, {(half, half): 1})
    with pytest.raises(GwpaError, match="exceeds the limit"):
        ring.monomial((0, half)) * ring.monomial((0, half))
    with pytest.raises(GwpaError, match="exceeds the limit"):
        ring.monomial((half, 0)) * ring.monomial((0, half))
    with pytest.raises(GwpaError, match="exceeds the limit"):
        H ** DEGREE_LIMIT
    with pytest.raises(GwpaError, match="total degree 1099511627776 exceeds"):
        H ** 2 ** 40
    raise_degree = BaseDerivation.from_images(ring, {"H": H ** 2})
    assert raise_degree(ring.monomial((0, top - 1))) == ring.monomial((0, top), top - 1)
    with pytest.raises(GwpaError, match="exceeds the limit"):
        raise_degree(below)


# -- the packed kernel against the tuple and Fraction reference ----------------

_coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _operands(draw, count=2):
    """A ring with up to three variables and ``count`` term maps over it."""
    n = draw(st.integers(0, 3))
    ring = PolyRing(["C", "H", "Z"][:n])
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    return ring, [draw(st.dictionaries(monomial, _coeff, max_size=4)) for _ in range(count)]


def _agrees(poly, ref):
    """Same terms, same int/Fraction types, same text, same hash."""
    assert poly.terms() == ref.terms
    assert {e: type(c) for e, c in poly.items()} == {e: type(c) for e, c in ref.terms.items()}
    assert str(poly) == str(ref)
    assert hash(poly) == ref.hash_value()


@settings(max_examples=150, deadline=None)
@given(_operands(), _coeff, st.integers(0, 3))
def test_kernel_arithmetic_matches_tuple_reference(operands, scalar, power):
    ring, (a, b) = operands
    p, q = Polynomial(ring, a), Polynomial(ring, b)
    r, s = TuplePolynomial(ring.variables, a), TuplePolynomial(ring.variables, b)
    _agrees(p, r)
    _agrees(p + q, r + s)
    _agrees(p - q, r - s)
    _agrees(-p, -r)
    _agrees(p * q, r * s)
    _agrees(p ** power, r ** power)
    _agrees(p * scalar, r * scalar)
    _agrees(scalar * p, r * scalar)
    _agrees(p + scalar, r + scalar)
    if scalar:
        _agrees(p / scalar, r / scalar)
    assert (p == q) == (r.terms == s.terms)


@settings(max_examples=100, deadline=None)
@given(_operands(count=3), st.data())
def test_kernel_calculus_matches_tuple_reference(operands, data):
    ring, (a, b, c) = operands
    p, r = Polynomial(ring, a), TuplePolynomial(ring.variables, a)
    for i, name in enumerate(ring.variables):
        _agrees(p.partial(name), r.partial(i))
    images = dict(zip(range(ring.nvars), (b, c)))
    _agrees(
        p.substitute({ring.variables[i]: Polynomial(ring, m) for i, m in images.items()}),
        r.substitute({i: TuplePolynomial(ring.variables, m) for i, m in images.items()}),
    )
    weights = data.draw(st.lists(st.integers(1, 3), min_size=ring.nvars, max_size=ring.nvars))
    degrees = [sum(x * w for x, w in zip(e, weights)) for e in r.terms]
    assert p.weighted_degree(weights) == max(degrees, default=NEG_INF)
    for degree in range(10):
        _agrees(p.weighted_component(weights, degree), r.weighted_component(weights, degree))
    for exps in list(a) + [data.draw(st.tuples(*[st.integers(0, 4)] * ring.nvars))]:
        assert p.coefficient(exps) == r.coefficient(exps)
        assert type(p.coefficient(exps)) is type(r.coefficient(exps))


@settings(max_examples=100, deadline=None)
@given(_operands(count=1))
def test_equal_polynomials_hash_equal_across_construction_paths(operands):
    ring, (a,) = operands
    direct = Polynomial(ring, a)
    paths = [
        Polynomial(ring, {e: Fraction(2 * c) for e, c in a.items()}) / 2,
        Polynomial(ring, {e: Fraction(4 * c, 4) for e, c in a.items()}),
        sum((ring.monomial(e, c) for e, c in a.items()), ring.zero()),
        (direct * 3) * Fraction(1, 3),
        (direct + ring.one()) - 1,
        parse_polynomial(str(direct), ring),
    ]
    for other in paths:
        assert other == direct
        assert hash(other) == hash(direct)
    assert len(set(paths + [direct])) == 1
    assert ring.const(Fraction(4, 2)) == ring.const(2)
    two = hash(2)  # a constant hashes as its value, which it equals
    assert hash(ring.const(Fraction(4, 2))) == hash(ring.const(2)) == two


@settings(max_examples=100, deadline=None)
@given(_operands(count=3))
def test_derivation_with_fraction_images_matches_chain_rule(operands):
    ring, (a, *maps) = operands
    images = {
        name: Polynomial(ring, maps[i % 2]) + ring.var(name) * Fraction(1, 3)
        for i, name in enumerate(ring.variables)
    }
    der = BaseDerivation.from_images(ring, images)
    f = Polynomial(ring, a)
    got = der(f)
    assert got == derivation_chain_rule(der, f)
    expected = TuplePolynomial(ring.variables, {})
    ref = TuplePolynomial.of(f)
    for i, name in enumerate(ring.variables):
        expected = expected + ref.partial(i) * TuplePolynomial.of(images[name])
    _agrees(got, expected)
    assert der(f) == got  # warm memo


# -- division against the dense reference and its defining properties ----------


@st.composite
def _univariate_pair(draw):
    """Two polynomials in H over K[C, H] with a drawn common factor; zero and
    constant inputs are among them."""
    ring = PolyRing(["C", "H"])

    def poly(max_degree):
        coeffs = draw(st.lists(_coeff, max_size=max_degree + 1))
        return Polynomial(ring, {(0, e): c for e, c in enumerate(coeffs)})

    common = poly(2)
    return ring, common * poly(3), common * poly(3)


@settings(max_examples=150, deadline=None)
@given(_univariate_pair())
def test_univariate_gcd_matches_dense_reference(pair):
    ring, f, g = pair
    expected = dense_univariate_gcd(f, g, "H")
    assert univariate_gcd(f, g, "H") == expected
    assert univariate_gcd(g, f, "H") == expected
    assert univariate_gcd(f, ring.zero(), "H") == dense_univariate_gcd(f, ring.zero(), "H")
    assert univariate_gcd(ring.const(Fraction(-2, 3)), g, "H") == ring.one()


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_division_leaves_a_remainder_free_of_the_leading_monomial(operands):
    ring, (a, b) = operands
    f, g = Polynomial(ring, a), Polynomial(ring, b)
    assume(not g.is_zero)
    quotient, remainder = _divmod(f, g)
    assert quotient * g + remainder == f
    lead, _ = g.leading_term()
    for exps, _ in remainder.items():
        assert not all(x >= y for x, y in zip(exps, lead))


@settings(max_examples=150, deadline=None)
@given(_operands(count=3))
def test_exact_divide_recovers_the_cofactor(operands):
    ring, (a, b, c) = operands
    h, g = Polynomial(ring, a), Polynomial(ring, b)
    assume(not g.is_zero)
    assert exact_divide(h * g, g) == h
    assert divides(g, h * g)
    if g.is_constant:
        return
    # a nonzero multiple of g has total degree at least deg g, so adding a
    # nonzero polynomial of lower degree leaves no multiple of g
    low = {e: v for e, v in c.items() if sum(e) < g.total_degree}
    bump = Polynomial(ring, low)
    bump = ring.one() if bump.is_zero else bump
    assert exact_divide(h * g + bump, g) is None
    assert not divides(g, h * g + bump)
