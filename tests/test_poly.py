"""Polynomial layer: arithmetic, ordering, rendering, division, gcd."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gwpa.errors import AmbientMismatchError, GwpaError
from gwpa.poly import (
    NEG_INF,
    PolyRing,
    Polynomial,
    divides,
    exact_divide,
    monomials_up_to,
    render_polynomial,
    univariate_gcd,
)
from gwpa.quant import AffineSubstitution

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


def test_render_follows_graded_lex_descending(ring):
    H = ring.var("H")
    C = ring.var("C")
    poly = Fraction(1, 3) * C - 2 * H ** 2 - 1
    assert render_polynomial(poly) == "-2*H^2 + 1/3*C - 1"
    assert render_polynomial(ring.zero()) == "0"
    assert render_polynomial(-H) == "-H"
    assert str(C * H - C) == "C*H - C"


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
