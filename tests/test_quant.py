"""Filtered algebras with shift operators and the graded correspondence."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwpa.errors import AlgebraMismatchError, AmbientMismatchError, GwpaError
from gwpa.gallery import gr_usl2, p2n
from gwpa.poisson import BaseDerivation
from gwpa.poly import NEG_INF, Polynomial, PolyRing
from gwpa.quant import (
    AffineSubstitution,
    GWAData,
    GWAElement,
    gr_correspondence_check,
    predicted_gwpa,
    usl2_gwa,
    weyl_gwa,
)

from oracles import TuplePolynomial
from sampling import nonzero_element, random_element


def test_substitution_call_and_compose():
    ring = PolyRing(["H"])
    H = ring.var("H")
    tau = AffineSubstitution.from_map(ring, {"H": 2 * H + 1})
    sig = AffineSubstitution.from_map(ring, {"H": H - 1})
    assert tau(H ** 2) == (2 * H + 1) ** 2
    assert sig.compose(tau)(H) == 2 * H - 1
    assert tau.compose(sig)(H) == 2 * H
    assert sig.compose(tau)(H) == sig(tau(H))
    identity = AffineSubstitution.identity(ring)
    assert identity.compose(sig) == sig
    assert sig.compose(identity) == sig
    foreign = PolyRing(["W"])
    mismatch = r"^ambient mismatch: operands live over \['H'\] and \['W'\]$"
    with pytest.raises(GwpaError, match="^expected 1 images, got 2$"):
        AffineSubstitution(ring, (H, H))
    with pytest.raises(AmbientMismatchError, match=mismatch):
        AffineSubstitution(ring, (foreign.var("W"),))
    with pytest.raises(AmbientMismatchError, match=mismatch):
        sig(foreign.one())
    with pytest.raises(AmbientMismatchError, match=mismatch):
        sig.compose(AffineSubstitution.identity(foreign))


def test_substitution_inverse():
    ring = PolyRing(["H"])
    H = ring.var("H")
    aff = AffineSubstitution.from_map(ring, {"H": 2 * H + 3})
    inv = aff.inverse()
    assert inv(H) == Fraction(1, 2) * H - Fraction(3, 2)
    assert aff.compose(inv) == AffineSubstitution.identity(ring)
    assert inv.compose(aff) == AffineSubstitution.identity(ring)

    plane = PolyRing(["H1", "H2"])
    H1, H2 = plane.gens()
    shear = AffineSubstitution.from_map(plane, {"H1": H1 + H2, "H2": H2 - 1})
    assert shear.inverse().compose(shear) == AffineSubstitution.identity(plane)
    squash = AffineSubstitution.from_map(plane, {"H1": H1 + H2, "H2": H1 + H2})
    with pytest.raises(GwpaError):
        squash.inverse()
    with pytest.raises(GwpaError):
        AffineSubstitution.from_map(ring, {"H": H ** 2})


_coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _substitution_and_polynomial(draw):
    """A ring with one to three variables, term maps of affine images of
    every variable (any linear part) and a polynomial's term map."""
    n = draw(st.integers(1, 3))
    ring = PolyRing(["C", "H", "Z"][:n])
    affine = st.sampled_from([(0,) * n] + [tuple(int(j == i) for j in range(n)) for i in range(n)])
    images = [draw(st.dictionaries(affine, _coeff, max_size=n + 1)) for _ in range(n)]
    poly = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), _coeff, max_size=5))
    return ring, images, poly


@settings(max_examples=150, deadline=None)
@given(_substitution_and_polynomial())
def test_substitution_matches_tuple_reference(case):
    ring, images, terms = case
    sigma = AffineSubstitution(ring, [Polynomial(ring, m) for m in images])
    expected = TuplePolynomial(ring.variables, terms).substitute(
        {i: TuplePolynomial(ring.variables, m) for i, m in enumerate(images)}
    )
    for _ in range(2):  # the second pass reads memoized monomial images
        image = sigma(Polynomial(ring, terms))
        assert image.terms() == expected.terms
        assert str(image) == str(expected)


@pytest.mark.parametrize("k", range(-4, 5))
def test_substitution_powers_match_repeated_composition(k):
    plane = PolyRing(["H1", "H2"])
    H1, H2 = plane.gens()
    for sigma in (
        AffineSubstitution.from_map(plane, {"H1": H1 - 1}),
        AffineSubstitution.from_map(plane, {"H1": H1 + H2, "H2": 2 * H2 - 1}),
    ):
        step = sigma if k >= 0 else sigma.inverse()
        expected = AffineSubstitution.identity(plane)
        for _ in range(abs(k)):
            expected = expected.compose(step)
        assert sigma ** k == expected


def test_sigma_alpha_inverts_under_negation():
    A = weyl_gwa(2)
    identity = AffineSubstitution.identity(A.ring)
    for alpha in itertools.product(range(-3, 4), repeat=2):
        neg_alpha = tuple(-k for k in alpha)
        assert A.sigma_alpha(alpha).compose(A.sigma_alpha(neg_alpha)) == identity


def test_high_sigma_powers_do_not_recurse():
    A = weyl_gwa(1)
    H = A.ring.var("H1")
    assert A.sigma_alpha((-5000,))(H) == H + 5000
    assert A.shifted_parameter(0, 4000) == H - 4000
    # the two requested maps and the unit maps they were squared from
    assert len(A._alpha_maps) <= 4


def _sheared_gwa() -> GWAData:
    """A rank two algebra whose first substitution has a non-diagonal
    linear part: (H1, Z) -> (H1 + Z, Z - 1), inverse (H1 - Z - 1, Z + 1)."""
    ring = PolyRing(["H1", "H2", "Z"])
    H1, H2, Z = ring.gens()
    shear = AffineSubstitution.from_map(ring, {"H1": H1 + Z, "Z": Z - 1})
    shift = AffineSubstitution.from_map(ring, {"H2": H2 - 1})
    return GWAData(ring, (shear, shift), (H1, H2), (2, 2, 1), (2, 2), nu=1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([lambda: weyl_gwa(2), _sheared_gwa]),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=15),
)
def test_sigma_alpha_in_any_request_order_matches_unit_powers(build, alphas):
    """Each alpha, reached by a cached neighbour or by squaring, equals the
    composite of the unit powers taken on a fresh algebra."""
    A = build()
    for alpha in alphas:
        fresh = build()
        expected = AffineSubstitution.identity(fresh.ring)
        for sigma, k in zip(fresh.sigmas, alpha):
            expected = expected.compose(sigma ** k)
        assert A.sigma_alpha(alpha) == expected


@pytest.mark.parametrize("build", [lambda: weyl_gwa(2), usl2_gwa], ids=["weyl_2", "usl2"])
def test_contraction_factor_matches_its_defining_product(build):
    A = build()
    reference = build()
    for i in range(A.rank):
        sigma = reference.sigmas[i]
        for p, q in itertools.product(range(-6, 7), repeat=2):
            expected = A.ring.one()
            if p and q and (p > 0) != (q > 0):
                m = min(abs(p), abs(q))
                if p > 0:
                    shifts = range(p - m + 1, p + 1)
                else:
                    shifts = (-k for k in range(-p - m, -p))
                for k in shifts:
                    expected = expected * (sigma ** k)(reference.a[i])
            assert A.contraction_factor(i, p, q) == expected, (i, p, q)


def test_algebra_data_validation():
    ring = PolyRing(["H1", "H2"])
    H1, H2 = ring.gens()
    shift1 = AffineSubstitution.from_map(ring, {"H1": H1 - 1})
    shift2 = AffineSubstitution.from_map(ring, {"H2": H2 - 1})
    twisted = AffineSubstitution.from_map(ring, {"H2": H2 - H1})

    GWAData(ring, (shift1, shift2), (H1, H2), (1, 1), (1, 1))
    with pytest.raises(GwpaError, match="do not commute"):
        GWAData(ring, (shift1, twisted), (H1, H2), (1, 1), (1, 1))
    with pytest.raises(GwpaError, match="weighted degree"):
        GWAData(ring, (shift1, shift2), (H1, H2), (1, 1), (2, 1))
    with pytest.raises(GwpaError, match="must fix parameter"):
        both = AffineSubstitution.from_map(ring, {"H1": H1 - 1, "H2": H2 - 1})
        GWAData(ring, (both, shift2), (H1, H2), (1, 1), (1, 1))
    with pytest.raises(GwpaError, match="filtration drop"):
        GWAData(ring, (shift1, shift2), (H1, H2), (1, 1), (1, 1), nu=0)
    with pytest.raises(GwpaError, match="weights must be positive"):
        GWAData(ring, (shift1, shift2), (H1, H2), (0, 1), (1, 1))
    with pytest.raises(GwpaError, match="^rank must be at least one$"):
        GWAData(ring, (), (), (1, 1), ())
    with pytest.raises(GwpaError, match="^substitutions, parameters and degrees must align$"):
        GWAData(ring, (shift1,), (H1, H2), (1, 1), (1,))
    with pytest.raises(GwpaError, match="^one weight per base variable is required$"):
        GWAData(ring, (shift1,), (H1,), (1,), (1,))
    foreign = PolyRing(["W"])
    mismatch = r"^ambient mismatch: operands live over \['H1', 'H2'\] and \['W'\]$"
    with pytest.raises(AmbientMismatchError, match=mismatch):
        GWAData(ring, (AffineSubstitution.identity(foreign),), (H1,), (1, 1), (1,))
    with pytest.raises(AmbientMismatchError, match=mismatch):
        GWAData(ring, (shift1,), (foreign.var("W"),), (1, 1), (1,))

    line = PolyRing(["H"])
    H = line.var("H")
    scaling = AffineSubstitution.from_map(line, {"H": 2 * H})
    with pytest.raises(GwpaError, match="exceeding"):
        GWAData(line, (scaling,), (H,), (1,), (1,))


def test_weights_and_degrees_are_integers():
    ring = PolyRing(["H"])
    H = ring.var("H")
    shift = AffineSubstitution.from_map(ring, {"H": H - 1})
    for weights, degrees, name in (
        ((1.5,), (1,), "weights"),
        (("2",), (2,), "weights"),
        ((1,), (1.9,), "degrees"),
        ((1,), (Fraction(1),), "degrees"),
    ):
        with pytest.raises(GwpaError, match="^%s .* must be integers$" % name):
            GWAData(ring, (shift,), (H,), weights, degrees)
    flagged = GWAData(ring, (shift,), (H,), (True,), (True,))
    assert flagged == GWAData(ring, (shift,), (H,), (1,), (1,))
    assert type(flagged.weights[0]) is int and type(flagged.degrees[0]) is int


def test_weyl_products():
    A = weyl_gwa(1)
    H = A.ring.var("H1")
    X, Y = A.X(1), A.Y(1)
    assert Y * X == A.scalar(H)
    assert X * Y == A.scalar(H - 1)
    assert Y.commutator(X) == A.one()
    assert X.commutator(A.scalar(H)) == -X
    assert X * X * Y == A.scalar(H - 2) * X
    assert Y * Y * X == A.scalar(H + 1) * Y

    B = weyl_gwa(2)
    assert B.Y(1).commutator(B.X(1)) == B.one()
    assert B.Y(2).commutator(B.X(2)) == B.one()
    assert B.X(1).commutator(B.Y(2)).is_zero
    assert B.X(1) * B.X(2) == B.X(2) * B.X(1)


def test_usl2_products_and_casimir():
    B = usl2_gwa()
    C = B.ring.var("C")
    H = B.ring.var("H")
    X, Y = B.X(1), B.Y(1)
    assert Y * X == B.scalar(C - H * (H + 1))
    assert X * Y == B.scalar(C - H * (H - 1))
    assert X.commutator(Y) == B.scalar(2 * H)
    assert B.scalar(H).commutator(X) == X
    assert B.scalar(H).commutator(Y) == -Y
    casimir = Y * X + B.scalar(H * (H + 1))
    assert casimir == B.scalar(C)
    assert all(casimir.commutator(g).is_zero for g in B.generators())


def test_shifted_parameters_and_contraction():
    A = weyl_gwa(1)
    H = A.ring.var("H1")
    assert A.shifted_parameter(0, 0) == H
    assert A.shifted_parameter(0, 2) == H - 2
    assert A.shifted_parameter(0, -1) == H + 1
    assert A.contraction_factor(0, 1, -1) == H - 1
    assert A.contraction_factor(0, 2, -1) == H - 2
    assert A.contraction_factor(0, -1, 1) == H
    assert A.contraction_factor(0, -2, 2) == H * (H + 1)
    assert A.contraction_factor(0, 2, 1) == A.ring.one()
    assert A.contraction_factor(0, 0, -3) == A.ring.one()


def test_associativity_randomized():
    rng = random.Random(137)
    for A in (weyl_gwa(1), weyl_gwa(2), usl2_gwa()):
        for _ in range(25):
            u = random_element(A, rng, bound=3)
            v = random_element(A, rng, bound=3)
            w = random_element(A, rng, bound=3)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w


def test_filtration_degrees():
    A = weyl_gwa(1)
    H = A.scalar(A.ring.var("H1"))
    assert A.X(1).degree == Fraction(1, 2)
    assert H.degree == 1
    assert (A.X(1) * A.Y(1)).degree == 1
    assert A.zero().degree == float("-inf")

    B = usl2_gwa()
    assert B.X(1).degree == 1
    assert B.scalar(B.ring.var("C")).degree == 2
    assert (B.X(1) + B.Y(1)).degree == 1

    rng = random.Random(149)
    for algebra in (A, B):
        for _ in range(20):
            u = random_element(algebra, rng, bound=3)
            v = random_element(algebra, rng, bound=3)
            if u.is_zero or v.is_zero:
                continue
            assert (u * v).degree <= u.degree + v.degree
            assert u.commutator(v).degree <= u.degree + v.degree - algebra.nu


def test_homogeneous_slices():
    B = usl2_gwa()
    C = B.ring.var("C")
    H = B.ring.var("H")
    u = B.Y(1) * B.X(1)
    assert u == B.scalar(C - H ** 2 - H)
    assert u.degree == 2
    assert u.leading_part() == B.scalar(C - H ** 2)
    assert u.homogeneous_part(1) == B.scalar(-H)
    assert u.homogeneous_part(Fraction(1, 2)).is_zero
    assert u.homogeneous_part(7).is_zero
    mixed = B.X(1) + B.scalar(H)
    assert mixed.leading_part() == mixed
    assert B.zero().leading_part().is_zero


@pytest.mark.parametrize("build", [lambda: weyl_gwa(2), usl2_gwa], ids=["weyl_2", "usl2"])
def test_slices_at_every_half_integer_add_up_to_the_element(build):
    """Slices are read in twice-degrees: each half-integer target, given as
    an int, a Fraction or a float, picks the terms of that degree, the
    slices add up to the element, and a target that is not a half-integer
    (or NEG_INF) gives zero."""
    A = build()
    rng = random.Random(503)
    for _ in range(15):
        u = nonzero_element(A, rng, bound=3)
        total = A.zero()
        for twice in range(int(2 * u.degree) + 1):
            target = Fraction(twice, 2)
            piece = u.homogeneous_part(target)
            assert piece == u.homogeneous_part(twice / 2)
            if target.denominator == 1:
                assert piece == u.homogeneous_part(twice // 2)
            assert piece.is_zero or piece.degree == target
            assert all(
                A.twice_term_degree(alpha, poly) == twice for alpha, poly in piece.terms().items()
            )
            total = total + piece
        assert total == u
        assert u.homogeneous_part(Fraction(1, 3)).is_zero
        assert u.homogeneous_part(0.25).is_zero
        assert u.homogeneous_part(NEG_INF).is_zero


def test_predicted_poisson_structures():
    assert predicted_gwpa(weyl_gwa(1)) == p2n(1)
    assert predicted_gwpa(weyl_gwa(2)) == p2n(2)
    assert predicted_gwpa(usl2_gwa()) == gr_usl2()


def test_correspondence_on_usl2():
    B = usl2_gwa()
    C = B.scalar(B.ring.var("C"))
    H = B.scalar(B.ring.var("H"))
    named = [B.X(1), B.Y(1), H, C]
    pairs = [(u, v) for u in named for v in named]
    report = gr_correspondence_check(B, pairs)
    assert report.all_match
    assert report.predicted == gr_usl2()
    assert len(report.pairs) == 16
    first = report.pairs[1]
    assert (first.left, first.right) == (B.X(1), B.Y(1))
    assert first.expected_degree == 1
    assert str(first.graded_bracket) == "2*H"
    assert first.graded_bracket == first.predicted_bracket


def test_correspondence_on_weyl():
    A = weyl_gwa(1)
    H = A.scalar(A.ring.var("H1"))
    report = gr_correspondence_check(
        A, [(A.Y(1), A.X(1)), (A.X(1), H), (A.X(1) * A.X(1), A.Y(1))]
    )
    assert report.all_match
    spot = report.pairs[0]
    assert spot.commutator == A.one()
    assert spot.expected_degree == 0
    assert str(spot.predicted_bracket) == "1"


def _rendered(report) -> str:
    lines = [
        " ; ".join(
            str(x)
            for x in (
                p.left, p.right, p.left_degree, p.right_degree, p.commutator,
                p.commutator_degree, p.expected_degree, p.degree_drops,
                p.graded_bracket, p.predicted_bracket, p.matches,
            )
        )
        for p in report.pairs
    ]
    return "all_match=%s\n%s" % (report.all_match, "\n".join(lines))


@pytest.mark.parametrize("build", [lambda: weyl_gwa(2), usl2_gwa], ids=["weyl_2", "usl2"])
def test_correspondence_report_does_not_depend_on_element_identity(build):
    """Leading data is memoized per element object within one call; fresh
    objects, one object in many pairs and distinct copies must all give the
    report of checking each pair on its own."""
    A = build()
    rng = random.Random(211)
    elements = [nonzero_element(A, rng, bound=3) for _ in range(6)]
    plan = [(rng.randrange(6), rng.randrange(6)) for _ in range(30)]

    def copy(u):
        return A.element(u.terms())

    fresh = ((copy(elements[i]), copy(elements[j])) for i, j in plan)
    shared = [(elements[i], elements[j]) for i, j in plan]
    distinct = [(copy(elements[i]), copy(elements[j])) for i, j in plan]
    texts = [_rendered(gr_correspondence_check(A, pairs)) for pairs in (fresh, shared, distinct)]
    assert texts[0] == texts[1] == texts[2]
    alone = [_rendered(gr_correspondence_check(build(), [pair])) for pair in shared]
    assert texts[0].split("\n")[1:] == [text.split("\n")[1] for text in alone]
    assert texts[0].startswith("all_match=True")


def test_repeated_checks_of_the_same_elements_match_fresh_copies():
    """The same element objects checked again, in one algebra or in two
    equal but distinct ones in turn, give the report of fresh copies, and
    checking them changes neither == nor hash."""
    rng = random.Random(307)
    first, second = weyl_gwa(2), weyl_gwa(2)
    usl2 = usl2_gwa()
    for A, rounds in ((first, [first, second, first, second]), (usl2, [usl2, usl2, usl2])):
        elements = [nonzero_element(A, rng, bound=3) for _ in range(5)]
        copies = [A.element(u.terms()) for u in elements]
        hashes = [hash(u) for u in elements]
        plan = [(rng.randrange(5), rng.randrange(5)) for _ in range(12)]
        pairs = [(elements[i], elements[j]) for i, j in plan]
        for B in rounds:
            fresh = [(B.element(elements[i].terms()), B.element(elements[j].terms())) for i, j in plan]
            expected = _rendered(gr_correspondence_check(B, fresh))
            assert _rendered(gr_correspondence_check(B, pairs)) == expected
        assert elements == copies
        assert [hash(u) for u in elements] == hashes == [hash(u) for u in copies]


@pytest.mark.parametrize("build", [lambda: weyl_gwa(2), usl2_gwa], ids=["weyl_2", "usl2"])
def test_check_slices_each_element_object_once_per_call(build, monkeypatch):
    """One check slices each distinct element object once (its leading
    part) and each pair's commutator once; nothing outlives the call, so a
    second check of the same pairs makes the same slices and derivation
    calls again."""
    A = build()
    rng = random.Random(401)
    elements = [nonzero_element(A, rng, bound=3) for _ in range(5)]
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(10)]
    distinct = len({id(u) for pair in pairs for u in pair})
    expected = _rendered(gr_correspondence_check(A, pairs))
    slice_of, apply = GWAElement.homogeneous_part, BaseDerivation.__call__
    rounds = []

    def counted_slice(u, target):
        rounds[-1]["homogeneous_part"] += 1
        return slice_of(u, target)

    def counted_apply(der, f):
        rounds[-1]["derivation"] += 1
        return apply(der, f)

    monkeypatch.setattr(GWAElement, "homogeneous_part", counted_slice)
    monkeypatch.setattr(BaseDerivation, "__call__", counted_apply)
    for _ in range(2):
        rounds.append(Counter())
        assert _rendered(gr_correspondence_check(A, pairs)) == expected
    monkeypatch.undo()
    assert rounds[0]["homogeneous_part"] == distinct + len(pairs)
    assert rounds[0] == rounds[1]


def test_predicted_algebra_is_built_once_per_algebra():
    A = weyl_gwa(2)
    predicted = predicted_gwpa(A)
    assert predicted_gwpa(A) is predicted
    assert predicted == p2n(2)
    assert gr_correspondence_check(A, [(A.X(1), A.Y(1))]).predicted is predicted
    assert predicted_gwpa(weyl_gwa(2)) is not predicted


def test_value_types_are_frozen_while_their_caches_hold_data():
    A = weyl_gwa(1)
    H = A.ring.var("H1")
    assert A.X(1) * A.scalar(H) == A.scalar(H - 1) * A.X(1)  # fills sigma caches
    faster = AffineSubstitution.from_map(A.ring, {"H1": H - 2})
    with pytest.raises(dataclasses.FrozenInstanceError):
        A.sigmas = (faster,)
    assert A.X(1) * A.scalar(H) == A.scalar(H - 1) * A.X(1)
    assert A == weyl_gwa(1)

    shift = A.sigmas[0]
    assert shift(H ** 2) == (H - 1) ** 2  # fills the monomial memo
    with pytest.raises(dataclasses.FrozenInstanceError):
        shift.images = (H - 5,)
    assert (shift(H), shift(H ** 2)) == (H - 1, (H - 1) ** 2)

    report = gr_correspondence_check(A, [(A.X(1), A.Y(1))])
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pairs = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pairs[0].matches = False
    assert report.all_match


def test_gwa_data_compares_by_value():
    ring = PolyRing(["H1"])
    H1 = ring.var("H1")
    shift = AffineSubstitution.from_map(ring, {"H1": H1 - 1})
    listed = GWAData(ring, [shift], [H1], [2], [2])
    tupled = GWAData(ring, (shift,), (H1,), (2,), (2,))
    assert isinstance(listed.sigmas, tuple) and isinstance(listed.weights, tuple)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert GWAData(ring, (shift,), (H1,), (2,), (2,), nu=2) != tupled
    assert dataclasses.replace(tupled, nu=2) == GWAData(ring, (shift,), (H1,), (2,), (2,), 2)
    with pytest.raises(GwpaError, match="filtration drop"):
        dataclasses.replace(tupled, nu=0)


def test_correspondence_input_errors():
    A = weyl_gwa(1)
    with pytest.raises(GwpaError):
        gr_correspondence_check(A, [(A.zero(), A.X(1))])
    with pytest.raises(AlgebraMismatchError):
        gr_correspondence_check(A, [(usl2_gwa().X(1), A.X(1))])
    with pytest.raises(GwpaError):
        gr_correspondence_check(A, [(A.ring.var("H1"), A.X(1))])


def test_element_coercion_and_errors():
    A = weyl_gwa(1)
    H = A.ring.var("H1")
    assert H * A.X(1) == A.scalar(H) * A.X(1)
    assert A.X(1) * H == A.X(1) * A.scalar(H)
    assert 2 + A.X(1) == A.X(1) + A.scalar(2)
    assert (1 - A.one()).is_zero
    with pytest.raises(AlgebraMismatchError):
        A.X(1) + usl2_gwa().X(1)
    with pytest.raises(GwpaError):
        A.X(1) ** -2
    with pytest.raises(GwpaError):
        A.v((1, 1))
    assert str(A.scalar(H) * A.Y(1)) == "H1*Y1"
