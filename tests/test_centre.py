"""Centre computations, the field test and bounded ideal closures."""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwpa import centre
from gwpa.centre import (
    _closure_coordinates,
    _moved_variables,
    centre_component,
    constants_basis,
    coordinate_count,
    field_criterion,
    nonzero_alphas,
    poisson_ideal_closure,
)
from gwpa.engine import GWPAElement, validate_gwpa
from gwpa.errors import GwpaError
from gwpa.gallery import gr_heisenberg, gr_usl2, p2n, univariate_family
from gwpa.parser import parse_element
from gwpa.poly import PolyRing, monomial_keys
from gwpa.simplicity import simplicity_check

from oracles import bracket_split, closure_by_multipliers, dense_centre_kernel
from sampling import heisenberg_based, nonzero_element, so3_based, zero_bracket_data


def test_degree_enumeration():
    assert nonzero_alphas(1, 2) == [(1,), (-1,), (2,), (-2,)]
    assert nonzero_alphas(2, 1) == [(1, 0), (0, 1), (0, -1), (-1, 0)]
    assert nonzero_alphas(1, 0) == []
    assert all(any(a) for a in nonzero_alphas(3, 2))


@pytest.mark.parametrize(
    "A", [p2n(1), p2n(3), gr_usl2(), gr_heisenberg(2), so3_based()],
    ids=["p2n_1", "p2n_3", "gr_usl2", "gr_heisenberg_2", "so3"],
)
def test_closed_form_counts_match_what_is_built(A):
    n = A.base_ring.nvars
    for degree in range(6):
        assert coordinate_count(0, n, degree) == len(monomial_keys(A.base_ring, degree))
        coords, _ = _closure_coordinates(A, degree)
        assert coordinate_count(A.rank, n, degree) == len(coords)
        assert coordinate_count(A.rank, 0, degree) - 1 == len(nonzero_alphas(A.rank, degree))


def test_constants_of_gallery_algebras():
    A = p2n(2)
    comp = constants_basis(A, 6)
    assert comp.degree == (0, 0)
    assert comp.dimension == 1
    assert comp.basis[0] == A.base_ring.one()

    B = gr_usl2()
    C = B.base_ring.var("C")
    comp = centre_component(B, (0,), 6)
    assert comp.dimension == 7
    assert comp.basis == tuple(C ** k for k in range(7))

    H = gr_heisenberg(1)
    Z = H.base_ring.var("Z")
    comp = centre_component(H, (0,), 3)
    assert comp.basis == tuple(Z ** k for k in range(4))


def test_central_basis_elements_really_commute():
    for A in (gr_usl2(), gr_heisenberg(1)):
        comp = centre_component(A, (0,) * A.rank, 4)
        gens = A.generators()
        for lam in comp.basis:
            u = A.scalar(lam)
            assert all(u.bracket(g).is_zero for g in gens)


def test_nonzero_degree_components_vanish_for_plane():
    A = p2n(2)
    for alpha in ((1, 0), (0, -1), (1, -1), (2, 2)):
        comp = centre_component(A, alpha, 6)
        assert comp.is_zero


def test_nonzero_degree_component_with_constant_parameter():
    A = univariate_family(["1"], ["0"])
    comp = centre_component(A, (1,), 2)
    H1 = A.base_ring.var("H1")
    assert comp.basis == (A.base_ring.one(), H1, H1 ** 2)
    for lam in comp.basis:
        u = A.element({(1,): lam})
        assert all(u.bracket(g).is_zero for g in A.generators())


# Coefficient lists of univariate a_i and b_i: short lists make zero and
# constant entries common, hence zero derivations and zero p_i(a_i).
_univariate = st.lists(st.sampled_from([0, 1, -1, 2, Fraction(-1, 2)]), max_size=3)


@st.composite
def _zero_bracket_families(draw):
    rank = draw(st.integers(1, 2))
    ring = PolyRing(["H%d" % i for i in range(1, rank + 1)])
    gens = ring.gens()

    def own(i):
        return sum((c * gens[i] ** e for e, c in enumerate(draw(_univariate))), ring.zero())

    return univariate_family([own(i) for i in range(rank)], [own(i) for i in range(rank)])


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.just(so3_based()), st.just(heisenberg_based()), _zero_bracket_families()))
def test_centre_component_matches_dense_kernel(A):
    # so(3) and Heisenberg have a nonzero bracket; univariate data a zero
    # one, so every shortcut of the sparse kernel meets the dense reference.
    for alpha in [(0,) * A.rank] + nonzero_alphas(A.rank, 3):
        for degree in range(5):
            assert centre_component(A, alpha, degree).basis == dense_centre_kernel(
                A, alpha, degree
            )
        with pytest.raises(GwpaError):
            centre_component(A, alpha, -1)


def test_centre_component_rejects_a_degree_tuple_of_the_wrong_length():
    A = gr_usl2()
    with pytest.raises(GwpaError):
        centre_component(A, (0, 0), 5)


def test_centre_component_reads_alpha_as_an_element_degree():
    A = p2n(1)
    for alpha in ((1.5,), ("1",), (Fraction(1),)):
        with pytest.raises(GwpaError, match="must hold integers"):
            centre_component(A, alpha, 2)
    with pytest.raises(GwpaError, match=re.escape("degree tuple (0, 0) does not match rank 1")):
        centre_component(A, (0, 0), 2)
    assert centre_component(A, (True,), 2) == centre_component(A, (1,), 2)


def test_negative_bounds_are_rejected():
    A = gr_usl2()
    with pytest.raises(GwpaError):
        centre_component(A, (0,), -1)
    with pytest.raises(GwpaError):
        constants_basis(A, -1)
    with pytest.raises(GwpaError):
        field_criterion(A, -1)
    with pytest.raises(GwpaError):
        field_criterion(A, 6, -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda A: poisson_ideal_closure(A, [A.X(1)], 2.5),
        lambda A: constants_basis(A, 2.5),
        lambda A: constants_basis(A, "3"),
        lambda A: centre_component(A, (0, 0), 2.0),
        lambda A: field_criterion(A, 2, Fraction(3, 2)),
        lambda A: simplicity_check(A, None),
        lambda A: simplicity_check(A, 2, "1"),
    ],
    ids=["closure", "constants", "constants-text", "component", "field", "simple", "window"],
)
def test_truncation_bounds_must_be_integers(call):
    """Each bound is read as an int before any work, so a float, Fraction,
    string or None is refused as such, not met as a TypeError deep inside."""
    with pytest.raises(GwpaError, match=r"^bounds \(.*\) must be integers$"):
        call(p2n(2))


def test_field_criterion_verdicts():
    holds = field_criterion(p2n(2))
    assert (holds.status, holds.exact) == ("holds", True)

    usl2 = field_criterion(gr_usl2())
    assert (usl2.status, usl2.exact) == ("fails", True)
    assert usl2.witness == gr_usl2().base_ring.var("C")

    heis = field_criterion(gr_heisenberg(1))
    assert (heis.status, heis.exact) == ("fails", True)
    assert heis.witness == gr_heisenberg(1).base_ring.var("Z")

    free = field_criterion(univariate_family(["1"], ["0"]))
    assert (free.status, free.exact) == ("fails", True)
    assert str(free.witness) == "H1"

    undecided = field_criterion(univariate_family(["H1^3"], ["H1"]))
    assert (undecided.status, undecided.exact) == ("undecided", False)
    assert undecided.truncation == {"degree": 6, "alpha_max": 4}

    # p_i(a_i) = 0, so the graded components are searched: X1*Y2 has zero
    # drift, since both derivations are d/dH.
    twin = field_criterion(zero_bracket_data(["H"], ["1", "1"], ["H", "H"]))
    assert (twin.status, twin.exact) == ("fails", True)
    assert str(twin.witness) == "X1*Y2"
    assert "[1, -1]" in twin.detail

    # Every nonzero degree drifts by a nonzero constant, but p(a) = 0 keeps
    # the verdict bounded.
    single = field_criterion(zero_bracket_data(["H"], ["1"], ["H"]))
    assert (single.status, single.exact) == ("undecided", False)
    assert single.witness is None
    assert single.truncation == {"degree": 6, "alpha_max": 4}


def test_closure_reaches_unit_in_plane():
    A = p2n(1)
    report = poisson_ideal_closure(A, [A.X(1)], 2)
    assert report.contains_unit
    assert report.stopped_early
    assert report.bound == 2
    assert len(report.basis) == 5
    assert report.overflow == 0


def test_closure_stays_proper_for_squared_parameter():
    A = univariate_family(["H1^2"], ["1"])
    report = poisson_ideal_closure(A, [A.X(1)], 4)
    assert not report.contains_unit
    assert not report.stopped_early
    assert len(report.basis) == 24
    smaller = poisson_ideal_closure(A, [A.X(1)], 3)
    assert not smaller.contains_unit
    assert len(smaller.basis) == 15
    assert len(smaller.basis) <= len(report.basis)


def test_closure_detects_unit_for_separable_parameter():
    A = univariate_family(["H1^2 - H1"], ["1"])
    report = poisson_ideal_closure(A, [A.X(1)], 3)
    assert report.contains_unit


def test_closure_answers_are_pinned():
    # The reported basis depends on the reduction rule of the span: rows are
    # reduced below their pivot only, so the first p2n(1) row keeps its Y1
    # term.  Reducing rows fully changes the dimension of the gr_usl2 case.
    cases = [
        (gr_usl2(), "C*H + 2/3*X1", 4, False, 53, ["Y1", "H - 3/4*C*Y1"],
         "c6a9153d6d927e376b90c8822e7ada9ac67369ca2eae9a7c66a0dc509c266991"),
        (p2n(1), "H1^3 - X1", 6, True, 33, ["1 - 3*H1^2*Y1", "Y1 - 3*H1^2*Y1^2"],
         "f416d841f11991ab15c7e9ee49fd703f2e4e4fa7c9111f315ffb6cdd3b8e3bd5"),
    ]
    for A, generator, bound, unit, dimension, first_rows, digest in cases:
        report = poisson_ideal_closure(A, [parse_element(generator, A)], bound)
        rendered = [str(b) for b in report.basis]
        assert (report.contains_unit, len(rendered), report.overflow) == (unit, dimension, 0)
        assert rendered[:2] == first_rows
        assert hashlib.sha256("\n".join(rendered).encode()).hexdigest() == digest


# The three baseline generator sets at the benchmark bounds, with their
# (contains_unit, dimension, overflow, stopped_early) and basis digest.
_BASELINE_CLOSURES = {
    ("gr_heisenberg_2", "Z", 4): (
        (False, 104, 160, False),
        "4cf1948c4ac35f95fce7dc343d05cbe0702b7480c25748c32ba70476a9b218a4",
    ),
    ("p2n_2", "H1^2", 4): (
        (True, 124, 0, True),
        "82263e34acbe39c2346617d8a44dd0bbb53b5c8d34c3fa5a4c419f559a30a783",
    ),
    ("gr_usl2", "C", 6): (
        (False, 91, 0, False),
        "de5bcd646549e6ff18b50e79f9b8fd04d1ef2d111ef8c34e874d0f608e0a6c5a",
    ),
}
_BASELINE_ALGEBRAS = {
    "gr_heisenberg_2": lambda: gr_heisenberg(2), "p2n_2": lambda: p2n(2), "gr_usl2": gr_usl2,
}


def _assert_baseline_report(case, report):
    counts, digest = _BASELINE_CLOSURES[case]
    rendered = [str(b) for b in report.basis]
    assert (
        report.contains_unit, len(rendered), report.overflow, report.stopped_early
    ) == counts
    assert hashlib.sha256("\n".join(rendered).encode()).hexdigest() == digest


def test_baseline_closures_are_pinned():
    # Z overflows, H1^2 finds a unit and stops early, C explores the whole
    # bounded span.  The multiplier loop must keep the order of
    # multiplications, since the queue order decides which rows the span
    # reports.
    for case in _BASELINE_CLOSURES:
        token, generator, bound = case
        A = _BASELINE_ALGEBRAS[token]()
        report = poisson_ideal_closure(A, [parse_element(generator, A)], bound)
        _assert_baseline_report(case, report)


@pytest.mark.parametrize(
    "case", [("gr_usl2", "C", 6), ("gr_heisenberg_2", "Z", 4)], ids=["C", "Z"]
)
def test_closure_takes_no_bracket_with_a_central_variable(monkeypatch, case):
    # C and Z are moved by no p_i and sit in no bracket entry, so a closure
    # never brackets with them; the reports stay the pinned ones.
    token, generator, bound = case
    A = _BASELINE_ALGEBRAS[token]()
    receivers = []
    bracket = GWPAElement.bracket
    monkeypatch.setattr(
        GWPAElement, "bracket", lambda u, v: receivers.append(u) or bracket(u, v)
    )
    central = parse_element(generator, A)
    report = poisson_ideal_closure(A, [central], bound)
    assert receivers and central not in receivers
    _assert_baseline_report(case, report)


# Zero-bracket data over H, Z, W: coordinate derivations d/dv, each
# parameter a sum of monomials in the variables no other derivation moves.
@st.composite
def _zero_bracket_draws(draw):
    names = ["H", "Z", "W"]
    movers = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
    params = []
    for i in range(len(movers)):
        free = [v for v in names if v not in movers[:i] + movers[i + 1:]]
        monomials = ["1"] + free + [v + "^2" for v in free]
        params.append(" + ".join(draw(st.lists(st.sampled_from(monomials), unique=True))) or "0")
    return zero_bracket_data(names, params, movers)


_GALLERY_POISSON = [p2n(1), p2n(2), gr_usl2(), gr_heisenberg(1), gr_heisenberg(2)]


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(st.sampled_from(_GALLERY_POISSON + [so3_based(), heisenberg_based()]),
              _zero_bracket_draws()),
    st.integers(0, 2 ** 16),
)
def test_variables_outside_the_moved_set_bracket_to_zero(A, seed):
    # The premise of the closure's skip, checked with the Leibniz oracle:
    # a variable outside the set brackets every element to zero, and one
    # inside it has a nonzero bracket with some generator.
    moved = _moved_variables(A)
    gens = A.generators()
    rng = random.Random(seed)
    samples = [nonzero_element(A, rng, bound=3) for _ in range(3)]
    for j, x in enumerate(A.base_ring.gens()):
        u = A.scalar(x)
        if j in moved:
            assert any(not bracket_split(u, g).is_zero for g in gens)
        else:
            assert all(bracket_split(u, v).is_zero for v in gens + samples)


def test_every_ring_shares_one_untouched_zero():
    # Every caller gets the same zero object, so an in-place edit of any
    # returned polynomial would show here after the usual work.
    for A in (gr_usl2(), p2n(2), so3_based()):
        ring = A.base_ring
        zero = ring.zero()
        assert ring.zero() is zero
        u, v = A.generators()[0], A.generators()[-1]
        poisson_ideal_closure(A, [v * v], 3)
        u.bracket(v * u)
        u * v
        validate_gwpa(A)
        centre_component(A, (0,) * A.rank, 3)
        assert ring.zero() is zero
        assert (zero._terms, zero._den) == ({}, 1)


def test_closure_finds_the_unit_through_a_multiplier(monkeypatch):
    # Y1 comes off the queue first.  Its weight-one multipliers Y1, H1 and
    # X1 give Y1^2, H1*Y1 and X1*Y1 = H1, which with H1 - 1 spans 1 before
    # any bracket is taken.
    A = p2n(1)
    brackets = []
    bracket = GWPAElement.bracket
    monkeypatch.setattr(
        GWPAElement, "bracket", lambda u, v: brackets.append(v) or bracket(u, v)
    )
    H1 = A.base_ring.var("H1")
    report = poisson_ideal_closure(A, [A.Y(1), A.scalar(H1 - 1)], 3)
    assert (report.contains_unit, report.stopped_early, report.overflow) == (True, True, 0)
    assert [str(b) for b in report.basis] == ["1", "Y1", "H1", "Y1^2", "H1*Y1"]
    assert brackets == []


@pytest.mark.parametrize("factor", [1, 2, Fraction(-1, 3)], ids=["1", "2", "-1/3"])
@pytest.mark.parametrize(
    "make, generator, bound, answer, digest",
    [
        (lambda: gr_heisenberg(1), "Z^2 + 1/3*H1*Z", 5, (False, 45, 46, False),
         "fa2e822c34e211a28009ae31dd49a475f51c6735618442f24ed8a3b3122534ca"),
        (lambda: p2n(2), "2*H1^2 + 3*X1", 4, (True, 44, 0, True),
         "f4c80a5f396fb433a5b96db794e67376f14ec6a57c84e2c36bf0c423b8ada7c6"),
        (gr_usl2, "2*C + 3*X1", 5, (False, 90, 0, False),
         "9dd20cd9347cf122dab0a232a6c8e1b70c890c4d3bbae7c9d442374ae6e6e322"),
    ],
    ids=["gr_heisenberg_1", "p2n_2", "gr_usl2"],
)
def test_closure_queues_rows_without_dividing_by_the_pivot(
    monkeypatch, make, generator, bound, answer, digest, factor
):
    # The closure queues each new row as its int row, a multiple of the
    # element the row stands for.  These generators give rows whose pivot
    # entry is not 1, spread over several degrees for the last two, and the
    # pinned reports were recorded when every queued row was divided by its
    # pivot entry; a nonzero multiple of the generator must give them too.
    to_element, pivots = centre._vector_to_element, []

    def spy(zero, row, coords, *den):
        if not den:  # a queued row, not a reported one
            pivots.append(row[min(row)])
        return to_element(zero, row, coords, *den)

    monkeypatch.setattr(centre, "_vector_to_element", spy)
    A = make()
    report = poisson_ideal_closure(A, [factor * parse_element(generator, A)], bound)
    assert any(p != 1 for p in pivots)
    rendered = [str(b) for b in report.basis]
    assert (
        report.contains_unit, len(rendered), report.overflow, report.stopped_early
    ) == answer
    assert hashlib.sha256("\n".join(rendered).encode()).hexdigest() == digest


def test_closure_edge_cases():
    A = p2n(1)
    empty = poisson_ideal_closure(A, [], 2)
    assert not empty.contains_unit
    assert empty.basis == ()
    unit = poisson_ideal_closure(A, [A.one()], 0)
    assert unit.contains_unit
    with pytest.raises(GwpaError):
        poisson_ideal_closure(A, [A.X(1)], -1)
    with pytest.raises(GwpaError):
        poisson_ideal_closure(A, [p2n(2).one()], 2)


def test_closure_basis_members_lie_in_ideal_span():
    A = univariate_family(["H1^2"], ["1"])
    report = poisson_ideal_closure(A, [A.X(1)], 4)
    for member in report.basis:
        assert not member.is_zero
        assert member.total_degree <= 4
    rendered = {str(b) for b in report.basis}
    assert "X1" in rendered
    assert "H1" in rendered


def test_closure_overflows_through_a_product():
    # Y1*X1 = H1^3 weighs 3, so at bound 2 the first multiplier of X1
    # already overflows before any bracket is taken.
    A = univariate_family(["H1^3"], ["1"])
    answers = {2: (False, 6, 5), 3: (False, 13, 12), 4: (False, 22, 25)}
    for bound, answer in answers.items():
        report = poisson_ideal_closure(A, [A.X(1)], bound)
        assert (report.contains_unit, len(report.basis), report.overflow) == answer


def test_closure_takes_one_product_per_lattice_degree(monkeypatch):
    # Each queued element takes one graded product v_beta * u per nonzero
    # beta within its weight budget, and reads the products with every
    # base monomial x^k off it; one product per monomial multiplier would
    # take 875 here.
    A = gr_usl2()
    generator = parse_element("C", A)
    queued, products = [], []
    to_element = centre._vector_to_element

    def spy(zero, row, coords, *den):
        element = to_element(zero, row, coords, *den)
        if not den:  # a queued row, not a reported one
            queued.append(element)
        return element

    mul = GWPAElement.__mul__
    monkeypatch.setattr(centre, "_vector_to_element", spy)
    monkeypatch.setattr(GWPAElement, "__mul__", lambda u, v: products.append(u) or mul(u, v))
    report = poisson_ideal_closure(A, [generator], 6)
    assert not report.stopped_early  # so every queued element was taken
    reach = sum(coordinate_count(A.rank, 0, 6 - u.total_degree) - 1 for u in queued)
    assert len(products) == 210 <= reach


_CLOSURE_ALGEBRAS = [
    gr_usl2(), gr_heisenberg(1), gr_heisenberg(2), p2n(2), so3_based(), heisenberg_based(),
    univariate_family(["H1^3 - H1"], ["1"]), univariate_family(["H1^3"], ["1"]),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CLOSURE_ALGEBRAS), st.integers(0, 2 ** 16), st.integers(1, 4))
def test_closure_matches_one_product_per_multiplier(A, seed, bound):
    # The bounded closure against its reference with one element product per
    # monomial multiplier, generators within the bound.
    rng = random.Random(seed)
    gens = [nonzero_element(A, rng, bound=bound, terms=2) for _ in range(rng.randint(1, 2))]
    report = poisson_ideal_closure(A, gens, bound)
    unit, basis, overflow, stopped_early = closure_by_multipliers(A, gens, bound)
    assert (report.contains_unit, report.overflow, report.stopped_early) == (
        unit, overflow, stopped_early
    )
    assert [str(b) for b in report.basis] == [str(b) for b in basis]
