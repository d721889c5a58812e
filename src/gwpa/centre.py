"""Poisson centres, field tests and bounded Poisson ideal closures.

All computations reduce to exact rational linear algebra on coefficient
vectors of bounded degree.  Results that depend on a truncation bound say
so: verdicts are exact only when an analytic argument removes the bound.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import comb, lcm
from typing import Callable, Sequence

from .engine import GWPAData, GWPAElement, _degree_order
from .errors import GwpaError
from .linalg import Echelon, nullspace
from .poly import Polynomial, PolyRing, _from_values, _integers, _make, _reduced, monomial_keys


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

    ``exact`` is read from ``status``: "holds" and "fails" are
    unconditional, "undecided" is only evidence at the recorded bounds.  A
    failing verdict always carries a concrete witness; an undecided one
    always explains what was out of reach.
    """

    status: str  # "holds" | "fails" | "undecided"
    detail: str
    witness: object | None = None
    truncation: dict | None = None

    @property
    def exact(self) -> bool:
        return self.status != "undecided"


#: Largest list one computation may build: kernel monomials, closure
#: coordinates or window degrees.  Each grows like a power of the number of
#: variables or of the rank, so a longer list raises before any work.
MAX_COORDINATES = 30_000


def coordinate_count(rank: int, nvars: int, degree: int) -> int:
    """Pairs (alpha in Z^rank, monomial in ``nvars`` variables) of weight at
    most ``degree``: the sum over k of C(rank, k) 2^k C(nvars + degree,
    nvars + k), choosing which k entries of alpha are nonzero and their
    signs, then the k positive sizes and the monomial.  Rank 0 counts kernel
    monomials; nvars 0 counts the alphas with |alpha| <= degree, zero too."""
    return sum(
        comb(rank, k) * 2 ** k * comb(nvars + degree, nvars + k)
        for k in range(min(rank, degree) + 1)
    )


def _bounds(message: str, *bounds: int) -> tuple[int, ...]:
    """A caller's truncation bounds as ints, read by :func:`_integers`;
    GwpaError ``message`` when one is negative."""
    ints = _integers(bounds, "bounds %r must be integers")
    if min(ints) < 0:
        raise GwpaError(message)
    return ints


def _check_size(count: int, what: str, parameter: str, bound: int) -> None:
    """Refuse to build ``count`` coordinates past ``MAX_COORDINATES``."""
    if count > MAX_COORDINATES:
        raise GwpaError(
            "%s %d needs %d %s, past the cap of %d"
            % (parameter, bound, count, what, MAX_COORDINATES)
        )


def _kernel_polynomials(
    ring: PolyRing,
    degree: int,
    operators: Sequence[Callable[[Polynomial], Polynomial]],
) -> tuple[Polynomial, ...]:
    """Basis of {f : deg f <= degree, op(f) = 0 for all operators}.

    Each operator must be linear; it is evaluated on every monomial and the
    joint kernel is extracted with exact rational elimination.  The basis is
    deterministic: one element per free monomial in ascending graded order.
    More than ``MAX_COORDINATES`` monomials raise before any is built.
    """
    (degree,) = _bounds("degree bound must be nonnegative", degree)
    _check_size(
        coordinate_count(0, ring.nvars, degree),
        "monomials in a centre kernel", "degree", degree,
    )
    monos = monomial_keys(ring, degree)
    # Sparse rows keyed (operator, packed monomial), which sort in graded order.
    rows_map: dict[tuple[int, int], dict] = {}
    for col, key in enumerate(monos):
        mono = _make(ring, {key: 1})
        for k, op in enumerate(operators):
            for r_key, coeff in op(mono).packed_items():
                row = rows_map.get((k, r_key))
                if row is None:
                    row = rows_map[(k, r_key)] = {}
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
    defining derivation; H_j(lambda) = lambda * drift_j for the Hamiltonian
    H_j = {-, x_j} of each base variable, with drift_j = sum_i alpha_i
    p_i(x_j); and lambda * alpha_i * p_i(a_i) = 0 for every i.  Zero
    derivations, and zero Hamiltonians with zero drift, give no condition
    and are dropped.  When a condition is multiplication by a nonzero
    polynomial (a nonzero alpha_i p_i(a_i), or a nonzero drift_j with x_j
    central, so H_j = 0) the slice is zero without elimination, since the
    base ring is a domain; no kernel is built or counted.
    """
    alpha = A._read_degree(alpha)
    (degree,) = _bounds("degree bound must be nonnegative", degree)
    zero_slice = CentreComponent(alpha, (), degree)
    if any(x and not A.p_of_a(i).is_zero for i, x in enumerate(alpha)):
        return zero_slice
    ring = A.base_ring
    operators: list[Callable[[Polynomial], Polynomial]] = [
        der for der in A.partials if not der.is_zero
    ]
    for j, field in enumerate(A.base.hamiltonians):
        drift = sum((d.images[j] * k for k, d in zip(alpha, A.partials) if k), ring.zero())
        if not field.is_zero:
            operators.append(
                lambda lam, field=field, drift=drift: field(lam) - lam * drift
            )
        elif not drift.is_zero:
            return zero_slice
    basis = _kernel_polynomials(ring, degree, operators)
    return CentreComponent(alpha, basis, degree)


def _constant_coordinate_cover(A: GWPAData) -> bool:
    """True when every base variable is differentiated by some defining
    derivation with a nonzero constant coefficient (and nothing else),
    which forces the joint constants down to the rationals."""
    single = [der.moved[0] for der in A.partials if len(der.moved) == 1]
    return len({v for v, image in single if image.is_constant}) == A.base_ring.nvars


def _moved_variables(A: GWPAData) -> set[int]:
    """Indices of the base variables that some p_i moves or some nonzero
    bracket entry involves (the entries are antisymmetric, so their rows
    name them all); {x_j, -} is zero on the algebra for any other x_j."""
    return {v for der in A.partials for v, _ in der.moved} | {j for j, _, _ in A.base.entries}


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
    out.sort(key=_degree_order)
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
    p_i(a_i) over a domain kill all nonzero-degree components.  When the
    cover applies the degree-0 slice is the rationals, so its kernel is not
    computed.  Otherwise the verdict stays undecided and reports the bounds
    searched.  Only lists that are really built are counted against
    ``MAX_COORDINATES``: each kernel, and the nonzero alphas of the window
    when no shortcut removes it.
    """
    degree, alpha_max = _bounds("bounds must be nonnegative", degree, alpha_max)
    constants_exact = A.base.is_trivial and _constant_coordinate_cover(A)
    if not constants_exact:
        comp0 = centre_component(A, (0,) * A.rank, degree)
        for lam in comp0.basis:
            if not lam.is_constant:
                return CriterionVerdict(
                    status="fails",
                    witness=lam,
                    detail=(
                        "the central derivation constant %s is a nonconstant "
                        "polynomial, hence not invertible" % lam
                    ),
                )
    graded_exact = all(not A.p_of_a(i).is_zero for i in range(A.rank))
    if not graded_exact:
        _check_size(
            coordinate_count(A.rank, 0, alpha_max) - 1,
            "grading degrees in a window", "alpha_max", alpha_max,
        )
        for alpha in nonzero_alphas(A.rank, alpha_max):
            comp = centre_component(A, alpha, degree)
            if not comp.is_zero:
                witness = GWPAElement(A, {alpha: comp.basis[0]})
                return CriterionVerdict(
                    status="fails",
                    witness=witness,
                    detail=(
                        "the graded component of degree %r contains the "
                        "central non-unit %s" % (list(alpha), witness)
                    ),
                )

    if constants_exact and graded_exact:
        return CriterionVerdict(
            status="holds",
            detail=(
                "derivation constants reduce to the rationals and every "
                "p_i(a_i) is nonzero over a domain, so all nonzero-degree "
                "components vanish"
            ),
        )
    return CriterionVerdict(
        status="undecided",
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
    and counted in ``overflow``.  When the iteration finds a unit it stops
    early and sets ``stopped_early``; a unit already in the span of the
    generators ends the search before any iteration, so there
    ``contains_unit`` is true and ``stopped_early`` false.
    """

    contains_unit: bool
    basis: tuple[GWPAElement, ...]
    bound: int
    overflow: int
    stopped_early: bool


def _closure_coordinates(A: GWPAData, bound: int):
    """Coordinates (weight, alpha, packed monomial) of weight at most
    ``bound``, ascending in weight, then alpha, then graded order, and the
    position of each among them, keyed by alpha and then by packed
    monomial."""
    ring = A.base_ring
    coords: list[tuple[int, tuple[int, ...], int]] = []
    for alpha in [(0,) * A.rank] + nonzero_alphas(A.rank, bound):
        size = sum(abs(x) for x in alpha)
        for key in monomial_keys(ring, bound - size):
            coords.append((size + (key >> ring.top), alpha, key))
    coords.sort()
    index: dict[tuple[int, ...], dict[int, int]] = {}
    for i, (_, alpha, key) in enumerate(coords):
        index.setdefault(alpha, {})[key] = i
    return coords, index


def _element_to_vector(u: GWPAElement, index, shift: int = 0) -> dict[int, int] | None:
    """The coordinates of ``u`` times the lcm of its denominators, or None
    when a term has no coordinate.  With ``shift`` the packed key of x^k,
    they are those of x^k ``u``: a monomial product adds packed keys."""
    scale = 1
    for poly in u._terms.values():
        if poly._den != 1:
            scale = lcm(scale, poly._den)
    vec: dict[int, int] = {}
    try:
        for alpha, poly in u._terms.items():
            slot = index[alpha]
            factor = scale // poly._den
            for key, coeff in poly._terms.items():
                vec[slot[key + shift]] = coeff * factor
    except KeyError:
        return None
    return vec


def _vector_to_element(zero: GWPAElement, row: dict, coords, den: int = 1) -> GWPAElement:
    """The element of a tracker row divided by ``den``, built from the zero
    element of its algebra."""
    ring = zero.algebra.base_ring
    terms: dict[tuple[int, ...], dict] = {}
    for idx, coeff in row.items():
        _, alpha, key = coords[idx]
        terms.setdefault(alpha, {})[key] = coeff
    return zero._new({a: _reduced(ring, t, den) for a, t in terms.items()})


def poisson_ideal_closure(
    A: GWPAData, gens: Sequence[GWPAElement], degree: int
) -> ClosureReport:
    """Span of the Poisson ideal generated by ``gens`` within a weight bound.

    Starting from the generators, the span is closed under multiplication
    by monomials and under bracketing with the algebra generators, keeping
    only results of filtration weight at most ``degree``.  The brackets are
    taken with X_i, Y_i and the base variables that some p_i moves or some
    nonzero base bracket entry involves: for any other x_j, {x_j, X_i} =
    p_i(x_j) X_i, {x_j, Y_i} = -p_i(x_j) Y_i and every {x_j, x_k} vanish,
    so x_j brackets everything to zero.  Because every
    retained element genuinely belongs to the ideal, finding a nonzero
    constant certifies that the ideal is not proper.  More than
    ``MAX_COORDINATES`` coordinates of weight at most ``degree`` raise
    before any is built.

    Each new tracker row is queued as the int row it is when inserted:
    its pivot entry times the element the row stands for, which the
    reported basis divides out.  :meth:`Echelon.insert` adds the same row
    for any nonzero multiple of a vector, so the products and brackets of
    the multiple give the span exactly the rows they would give unscaled.
    Each queued element c takes one graded product v_beta c per lattice
    degree beta that its weight budget reaches; the algebra is commutative
    and associative, so a multiplier x^k v_beta gives x^k (v_beta c), read
    off v_beta c with every packed key shifted by the key of x^k.
    """
    (degree,) = _bounds("closure bound must be nonnegative", degree)
    _check_size(
        coordinate_count(A.rank, A.base_ring.nvars, degree),
        "coordinates in a closure", "degree", degree,
    )
    coords, index = _closure_coordinates(A, degree)
    one = A.base_ring.one()
    zero = A.zero()
    tracker = Echelon()
    overflow = 0
    queue: deque[GWPAElement] = deque()
    unit_vec = {0: 1}  # coordinate 0 is the constant monomial at degree zero

    def admit(u: GWPAElement, shift: int = 0) -> bool:
        """Add x^k ``u`` to the span, where ``shift`` is the packed key of
        x^k; True when it contributed a new row.  The index holds every
        coordinate of weight at most ``degree``, so a heavier product has
        no vector and counts as one overflow."""
        nonlocal overflow
        if not u._terms:
            return False
        vec = _element_to_vector(u, index, shift)
        if vec is None:
            overflow += 1
            return False
        row = tracker.insert(vec)
        if row is None:
            return False
        queue.append(_vector_to_element(zero, row, coords))
        return True

    def reaches_unit(u: GWPAElement, shift: int = 0) -> bool:
        # The span can only gain the unit with a new row, and any span
        # holding it has a pivot in column 0.
        return admit(u, shift) and 0 in tracker.rows and unit_vec in tracker

    for g in gens:
        if g.algebra != A:
            raise GwpaError("closure generator belongs to a different algebra")
        admit(g)

    # The multipliers are the monomials of weight at least one, coords[1:],
    # ascending in weight, so those within a budget are a prefix of them.
    # Multiplying by exactly that prefix, in order, keeps the order of
    # products, which decides which rows the span reports.
    moved, rank2 = _moved_variables(A), 2 * A.rank
    bracket_gens = [
        g for k, g in enumerate(A.generators()) if k < rank2 or k - rank2 in moved
    ]

    stopped_early = False
    found_unit = unit_vec in tracker
    while queue and not found_unit:
        current = queue.popleft()
        budget = degree - current.total_degree
        count = bisect_left(coords, (budget + 1,)) - 1  # weights 1 .. budget
        products = {A.zero_alpha: current}  # beta -> v_beta * current
        for _, beta, key in islice(coords, 1, count + 1):
            product = products.get(beta)
            if product is None:
                product = products[beta] = zero._new({beta: one}) * current
            if reaches_unit(product, key):
                found_unit = True
                break
        if not found_unit:
            found_unit = any(reaches_unit(g.bracket(current)) for g in bracket_gens)
        stopped_early = found_unit

    basis = tuple(
        _vector_to_element(zero, row, coords, row[lead])
        for lead, row in sorted(tracker.rows.items())
    )
    return ClosureReport(
        contains_unit=found_unit,
        basis=basis,
        bound=degree,
        overflow=overflow,
        stopped_early=stopped_early,
    )
