"""Poisson centres, field tests and bounded Poisson ideal closures.

All computations reduce to exact rational linear algebra on coefficient
vectors of bounded degree.  Results that depend on a truncation bound say
so: verdicts are exact only when an analytic argument removes the bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import lcm
from typing import Callable, Sequence

from .engine import GWPAData, GWPAElement
from .errors import GwpaError
from .linalg import Echelon, nullspace
from .poly import Polynomial, PolyRing, _from_values, _make, _reduced, monomial_keys


@dataclass(frozen=True)
class CentreComponent:
    """Basis of one graded slice of a centre, truncated in degree.

    ``degree`` is the grading degree alpha; for plain derivation constants
    it is the zero tuple.  ``basis`` lists base polynomials lambda such that
    lambda v_alpha is central, in deterministic order.
    """

    degree: tuple[int, ...]
    basis: tuple[Polynomial, ...]
    truncation: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a decision procedure that may be truncated.

    ``exact`` records whether the status is unconditional or only evidence
    at the recorded bounds.  A failing verdict always carries a concrete
    witness; an undecided one always explains what was out of reach.
    """

    status: str  # "holds" | "fails" | "undecided"
    exact: bool
    detail: str
    witness: object | None = None
    truncation: dict | None = None


def _kernel_polynomials(
    ring: PolyRing,
    degree: int,
    operators: Sequence[Callable[[Polynomial], Polynomial]],
) -> tuple[Polynomial, ...]:
    """Basis of {f : deg f <= degree, op(f) = 0 for all operators}.

    Each operator must be linear; it is evaluated on every monomial and the
    joint kernel is extracted with exact rational elimination.  The basis is
    deterministic: one element per free monomial in ascending graded order.
    """
    if degree < 0:
        raise GwpaError("degree bound must be nonnegative")
    monos = monomial_keys(ring, degree)
    # Rows are keyed (operator, packed monomial), which sort in graded order.
    rows_map: dict[tuple[int, int], list] = {}
    for col, key in enumerate(monos):
        mono = _make(ring, {key: 1})
        for k, op in enumerate(operators):
            for r_key, coeff in op(mono).packed_items():
                row = rows_map.get((k, r_key))
                if row is None:
                    row = rows_map[(k, r_key)] = [0] * len(monos)
                row[col] = coeff
    matrix = [rows_map[key] for key in sorted(rows_map)]
    vectors = nullspace(matrix, ncols=len(monos))
    return tuple(
        _from_values(ring, {monos[i]: c for i, c in enumerate(vec) if c})
        for vec in vectors
    )


def constants_basis(A: GWPAData, degree: int) -> CentreComponent:
    """Joint kernel of the defining derivations, truncated at ``degree``."""
    operators = [der for der in A.partials]
    basis = _kernel_polynomials(A.base_ring, degree, operators)
    return CentreComponent((0,) * A.rank, basis, degree)


def centre_component(A: GWPAData, alpha: Sequence[int], degree: int) -> CentreComponent:
    """Coefficients lambda of central elements lambda v_alpha, up to degree.

    The conditions, each linear in lambda, are: lambda is killed by every
    defining derivation; {lambda, g} = lambda * sum_i alpha_i p_i(g) for
    every base generator g; and lambda * alpha_i * p_i(a_i) = 0 for every i.
    The base rings here are commutative, so this is also the absolute centre.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != A.rank:
        raise GwpaError("degree tuple must have length %d" % A.rank)
    ring = A.base_ring
    operators: list[Callable[[Polynomial], Polynomial]] = list(A.partials)
    gens = ring.gens()
    for j, g in enumerate(gens):
        drift = ring.zero()
        for i, x in enumerate(alpha):
            if x:
                drift = drift + A.partials[i](g) * x
        operators.append(
            lambda lam, g=g, drift=drift: A.base.bracket(lam, g) - lam * drift
        )
    for i, x in enumerate(alpha):
        if x:
            kill = A.p_of_a(i) * x
            if not kill.is_zero:
                operators.append(lambda lam, kill=kill: lam * kill)
    basis = _kernel_polynomials(ring, degree, operators)
    return CentreComponent(alpha, basis, degree)


def _constant_coordinate_cover(A: GWPAData) -> bool:
    """True when every base variable is differentiated by some defining
    derivation with a nonzero constant coefficient (and nothing else),
    which forces the joint constants down to the rationals."""
    covered = [False] * A.base_ring.nvars
    for der in A.partials:
        support = [
            (v, img) for v, img in enumerate(der.images) if not img.is_zero
        ]
        if len(support) == 1:
            v, img = support[0]
            if img.is_constant:
                covered[v] = True
    return all(covered)


def nonzero_alphas(rank: int, alpha_max: int) -> list[tuple[int, ...]]:
    """Lattice degrees with 0 < |alpha| <= alpha_max, deterministic order."""
    out = []

    def rec(prefix, budget):
        if len(prefix) == rank:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for x in range(-budget, budget + 1):
            rec(prefix + [x], budget - abs(x))

    rec([], alpha_max)
    out.sort(key=lambda a: (sum(abs(x) for x in a), tuple(-x for x in a)))
    return out


def field_criterion(A: GWPAData, degree: int = 6, alpha_max: int = 4) -> CriterionVerdict:
    """Decide whether the centre of the algebra is a field.

    Coefficients are rational, so characteristic zero is automatic.  The
    remaining conditions are that the derivation constants inside the base
    Poisson centre form a field and that every graded component of nonzero
    degree vanishes.  Failures are always exact, since any nonconstant
    central witness is a non-unit.  A positive answer is exact only when
    analytic shortcuts apply: constant coordinate derivations covering all
    base variables force the constants down to the rationals, and nonzero
    p_i(a_i) over a domain kill all nonzero-degree components.  Otherwise
    the verdict stays undecided and reports the bounds searched.
    """
    if degree < 0 or alpha_max < 0:
        raise GwpaError("bounds must be nonnegative")
    zero_alpha = (0,) * A.rank
    comp0 = centre_component(A, zero_alpha, degree)
    for lam in comp0.basis:
        if not lam.is_constant:
            return CriterionVerdict(
                status="fails",
                exact=True,
                witness=lam,
                detail=(
                    "the central derivation constant %s is a nonconstant "
                    "polynomial, hence not invertible" % lam
                ),
            )
    constants_exact = A.base.is_trivial and _constant_coordinate_cover(A)

    graded_exact = all(not A.p_of_a(i).is_zero for i in range(A.rank))
    if not graded_exact:
        for alpha in nonzero_alphas(A.rank, alpha_max):
            comp = centre_component(A, alpha, degree)
            if not comp.is_zero:
                witness = GWPAElement(A, {alpha: comp.basis[0]})
                return CriterionVerdict(
                    status="fails",
                    exact=True,
                    witness=witness,
                    detail=(
                        "the graded component of degree %r contains the "
                        "central non-unit %s" % (list(alpha), witness)
                    ),
                )

    if constants_exact and graded_exact:
        return CriterionVerdict(
            status="holds",
            exact=True,
            detail=(
                "derivation constants reduce to the rationals and every "
                "p_i(a_i) is nonzero over a domain, so all nonzero-degree "
                "components vanish"
            ),
        )
    return CriterionVerdict(
        status="undecided",
        exact=False,
        detail=(
            "no witness below the bounds; positive evidence is truncated "
            "(constants checked to degree %d, graded components for "
            "|alpha| <= %d)" % (degree, alpha_max)
        ),
        truncation={"degree": degree, "alpha_max": alpha_max},
    )


@dataclass(frozen=True)
class ClosureReport:
    """Bounded Poisson ideal closure.

    ``basis`` spans the ideal members found within the filtration weight
    bound.  ``contains_unit`` is a certificate when true (every basis member
    is a genuine ideal element); when false it is evidence at this bound
    only.  Candidate elements whose weight exceeds the bound are discarded
    and counted in ``overflow``.  When a unit is found the iteration stops
    early and ``stopped_early`` is set.
    """

    contains_unit: bool
    basis: tuple[GWPAElement, ...]
    bound: int
    overflow: int
    stopped_early: bool


def _closure_coordinates(A: GWPAData, bound: int):
    """Coordinates (alpha, packed monomial) of weight at most ``bound``,
    ascending in weight, then alpha, then graded order."""
    ring = A.base_ring
    coords: list[tuple[int, tuple[int, ...], int]] = []
    for alpha in [(0,) * A.rank] + nonzero_alphas(A.rank, bound):
        size = sum(abs(x) for x in alpha)
        for key in monomial_keys(ring, bound - size):
            coords.append((size + (key >> ring.top), alpha, key))
    coords.sort()
    coords = [(alpha, key) for _, alpha, key in coords]
    index = {c: i for i, c in enumerate(coords)}
    return coords, index


def _element_to_vector(u: GWPAElement, index) -> dict[int, int] | None:
    """The coordinates of ``u`` times the lcm of its denominators."""
    scale = 1
    for poly in u._terms.values():
        if poly._den != 1:
            scale = lcm(scale, poly._den)
    vec: dict[int, int] = {}
    for alpha, poly in u._terms.items():
        factor = scale // poly._den
        for key, coeff in poly._terms.items():
            idx = index.get((alpha, key))
            if idx is None:
                return None
            vec[idx] = coeff * factor
    return vec


def _vector_to_element(A: GWPAData, row: dict, coords) -> GWPAElement:
    """The element of a tracker row: ``row`` divided by its pivot entry."""
    pivot = row[min(row)]
    terms: dict[tuple[int, ...], dict] = {}
    for idx, coeff in row.items():
        alpha, key = coords[idx]
        terms.setdefault(alpha, {})[key] = coeff
    return A.zero()._new({a: _reduced(A.base_ring, t, pivot) for a, t in terms.items()})


def poisson_ideal_closure(
    A: GWPAData, gens: Sequence[GWPAElement], degree: int
) -> ClosureReport:
    """Span of the Poisson ideal generated by ``gens`` within a weight bound.

    Starting from the generators, the span is closed under multiplication
    by monomials and under bracketing with the algebra generators, keeping
    only results of filtration weight at most ``degree``.  Because every
    retained element genuinely belongs to the ideal, finding a nonzero
    constant certifies that the ideal is not proper.
    """
    if degree < 0:
        raise GwpaError("closure bound must be nonnegative")
    coords, index = _closure_coordinates(A, degree)
    tracker = Echelon()
    overflow = 0
    queue: deque[GWPAElement] = deque()
    unit_vec = {0: 1}  # coordinate 0 is the constant monomial at degree zero

    def admit(u: GWPAElement) -> bool:
        """Add ``u`` to the span; True when it contributed a new row.  The
        index holds every coordinate of weight at most ``degree``, so a
        heavier ``u`` has no vector and counts as one overflow."""
        nonlocal overflow
        if u.is_zero:
            return False
        vec = _element_to_vector(u, index)
        if vec is None:
            overflow += 1
            return False
        row = tracker.insert(vec)
        if row is None:
            return False
        queue.append(_vector_to_element(A, row, coords))
        return True

    def reaches_unit(u: GWPAElement) -> bool:
        # The span can only gain the unit with a new row, and any span
        # holding it has a pivot in column 0.
        return admit(u) and 0 in tracker.rows and unit_vec in tracker

    for g in gens:
        if g.algebra != A:
            raise GwpaError("closure generator belongs to a different algebra")
        admit(g)

    # coords ascend in weight, so the multipliers do too: once one exceeds
    # the budget every later one does, and ``break`` multiplies by exactly
    # the multipliers, in exactly the order, that skipping them one by one
    # would.  The order matters: it decides which rows the span reports.
    ring = A.base_ring
    multipliers: list[tuple[int, GWPAElement]] = []
    for alpha, key in coords:
        weight = sum(abs(x) for x in alpha) + (key >> ring.top)
        if weight >= 1:
            multipliers.append(
                (weight, A.element({alpha: _make(ring, {key: 1})}))
            )
    bracket_gens = A.generators()

    stopped_early = False
    found_unit = unit_vec in tracker
    while queue and not found_unit:
        current = queue.popleft()
        budget = degree - current.total_degree
        for weight, mult in multipliers:
            if weight > budget:
                break
            if reaches_unit(mult * current):
                found_unit = True
                break
        if not found_unit:
            found_unit = any(reaches_unit(g.bracket(current)) for g in bracket_gens)
        stopped_early = found_unit

    basis = tuple(
        _vector_to_element(A, tracker.rows[lead], coords)
        for lead in sorted(tracker.rows)
    )
    return ClosureReport(
        contains_unit=found_unit,
        basis=basis,
        bound=degree,
        overflow=overflow,
        stopped_early=stopped_early,
    )
