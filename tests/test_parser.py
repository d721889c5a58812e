"""Text grammar for polynomials and algebra elements."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwpa.errors import ParseError
from gwpa.gallery import gr_usl2, p2n
from gwpa.parser import parse_element, parse_polynomial
from gwpa.poly import Polynomial, PolyRing, render_polynomial
from gwpa.quant import weyl_gwa


@pytest.fixture
def ring():
    return PolyRing(["C", "H"])


def test_round_trip_canonical(ring):
    text = "-2*H^2 + 1/3*C - 1"
    poly = parse_polynomial(text, ring)
    assert render_polynomial(poly) == text


def test_whitespace_and_implicit_star(ring):
    H = ring.var("H")
    C = ring.var("C")
    assert parse_polynomial("2H^2", ring) == 2 * H ** 2
    assert parse_polynomial("  2 * H ^ 2 ", ring) == 2 * H ** 2
    assert parse_polynomial("3C H", ring) == 3 * C * H
    assert parse_polynomial("H H", ring) == H ** 2
    assert parse_polynomial("-H", ring) == -H
    assert parse_polynomial("+H", ring) == H
    assert parse_polynomial("H - H", ring).is_zero
    with pytest.raises(ParseError):
        parse_polynomial("H - -H", ring)


def test_rationals(ring):
    H = ring.var("H")
    assert parse_polynomial("1/2*H", ring) == H / 2
    assert parse_polynomial("4/2", ring) == ring.const(2)
    assert parse_polynomial("0", ring).is_zero


def test_repeated_variables_multiply(ring):
    H = ring.var("H")
    assert parse_polynomial("H^2*H", ring) == H ** 3


def test_errors_carry_positions(ring):
    with pytest.raises(ParseError) as err:
        parse_polynomial("H + ", ring)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_polynomial("H + Q", ring)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("", ring)
    with pytest.raises(ParseError):
        parse_polynomial("H ^ x", ring)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", ring)
    with pytest.raises(ParseError) as err:
        parse_polynomial("H $ 1", ring)
    assert str(err.value) == "unexpected character '$' (at position 2 in 'H $ 1')"
    with pytest.raises(ParseError) as err:
        parse_polynomial("2*1", ring)
    assert str(err.value) == "expected a variable after '*' (at position 2 in '2*1')"
    # a superscript digit is a digit to str.isdigit, but not a number to int()
    with pytest.raises(ParseError) as err:
        parse_polynomial("H^²", ring)
    assert str(err.value) == "unexpected character '²' (at position 2 in 'H^²')"
    assert parse_polynomial("H^٣", ring) == ring.var("H") ** 3  # Arabic-Indic 3


def test_parse_element_normalizes():
    A = p2n(1)
    H = A.base_ring.var("H1")
    u = parse_element("X1*Y1 + 2*H1", A)
    assert u == A.scalar(3 * H)
    v = parse_element("Y1^2*X1", A)
    assert v == A.element({(-1,): H})
    assert parse_element("5", A) == A.scalar(5)


def test_parse_element_respects_written_order():
    A = gr_usl2()
    ring = A.base_ring
    xy = parse_element("X1*Y1", A)
    assert xy == A.scalar(ring.var("C") - ring.var("H") ** 2)
    assert parse_element("X1^2*Y1", A) == A.element(
        {(1,): ring.var("C") - ring.var("H") ** 2}
    )


def test_parse_element_unknown_generator():
    A = p2n(1)
    with pytest.raises(ParseError):
        parse_element("X2", A)
    with pytest.raises(ParseError):
        parse_element("X1^-1", A)


def test_parenthesized_sums():
    ring = PolyRing(["C", "H"])
    C, H = ring.gens()
    assert parse_polynomial("2(C + H)*H - (H - 1)(H + 1)", ring) == 2 * C * H + H ** 2 + 1
    A = weyl_gwa(1)
    H1 = A.ring.var("H1")
    assert parse_element("(H1 + 1)*X1^2", A) == A.scalar(H1 + 1) * A.X(1) ** 2
    assert parse_element("X1*(H1 + 1)", A) == A.scalar(H1) * A.X(1)
    for text, position in (("((H))", 1), ("(H + 1)^2", 7), ("(H", 2), ("H)", 1)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ring)
        assert err.value.position == position


_coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


def _polynomials(ring):
    monomial = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    return st.dictionaries(monomial, _coeff, max_size=4).map(lambda t: Polynomial(ring, t))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([["C", "H"], ["H1"], ["x", "y", "z"]]).flatmap(
    lambda names: _polynomials(PolyRing(names))))
def test_polynomial_render_round_trip(poly):
    text = render_polynomial(poly)
    parsed = parse_polynomial(text, poly.ring)
    assert parsed == poly
    assert render_polynomial(parsed) == text


_ALGEBRAS = {"p2n_2": p2n(2), "gr_usl2": gr_usl2(), "weyl_1": weyl_gwa(1)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_ALGEBRAS)), st.data())
def test_element_render_round_trip(name, data):
    A = _ALGEBRAS[name]
    alpha = st.tuples(*[st.integers(-3, 3)] * A.rank)
    u = A.element(data.draw(st.dictionaries(alpha, _polynomials(A.base_ring), max_size=4)))
    assert parse_element(str(u), A) == u


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_ALGEBRAS)), st.data())
def test_element_text_of_a_polynomial_is_its_scalar(name, data):
    A = _ALGEBRAS[name]
    ring = A.base_ring
    first = data.draw(_polynomials(ring))
    texts, expected = [render_polynomial(first)], first
    groups = st.lists(_polynomials(ring), min_size=1, max_size=2)
    for group in data.draw(st.lists(groups, max_size=2)):
        coeff = data.draw(st.sampled_from(["", "2*", "1/3 "]))
        texts.append(coeff + "".join("(%s)" % render_polynomial(p) for p in group))
        product = Fraction(coeff.strip(" *") or 1)
        for p in group:
            product = p * product
        expected = expected - product
    text = " - ".join(texts)
    assert parse_polynomial(text, ring) == expected
    assert parse_element(text, A) == A.scalar(parse_polynomial(text, ring))


def test_unknown_name_messages(ring):
    with pytest.raises(ParseError) as err:
        parse_polynomial("H + 2*(C - Q)", ring)
    assert str(err.value) == (
        "unknown variable 'Q' (ring has C, H) (at position 11 in 'H + 2*(C - Q)')"
    )
    with pytest.raises(ParseError) as err:
        parse_polynomial("x", PolyRing([]))
    assert str(err.value) == "unknown variable 'x' (ring has no variables) (at position 0 in 'x')"
    with pytest.raises(ParseError) as err:
        parse_element("(H1 + X3)*Y1", p2n(2))
    assert str(err.value) == (
        "unknown name 'X3' (expected a base variable or X1..X2, Y1..Y2)"
        " (at position 6 in '(H1 + X3)*Y1')"
    )
