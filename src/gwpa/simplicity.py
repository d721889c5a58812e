"""Poisson simplicity analysis.

The algebra is Poisson simple exactly when three conditions hold: the base
ring has no proper Poisson ideal stable under all defining derivations, the
ideal generated by each parameter together with its own derivative is the
whole base ring, and the centre of the algebra is a field.  Each condition
has one procedure for every algebra.  Condition 1 searches for an invariant
principal ideal among deterministic candidates; condition 2 settles each
pair by a nonzero constant, a univariate gcd or a common zero; condition 3
is :func:`field_criterion`.  The univariate family (parameters and
derivation coefficients univariate in their own variable over a
zero-bracket base) keeps one shortcut: when every derivation coefficient
is a nonzero rational, conditions 1 and 3 hold exactly.  Otherwise the
conditions are decided when a finite argument applies and reported as
undecided, never guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .centre import (
    CriterionVerdict,
    _bounds,
    _constant_coordinate_cover,
    _moved_variables,
    field_criterion,
    poisson_ideal_closure,
)
from .engine import GWPAData
from .poly import Polynomial, divides, univariate_gcd


@dataclass(frozen=True)
class SimplicityReport:
    """Three condition verdicts plus their conjunction.

    ``family`` records whether the data is in the univariate family; there,
    and only there, nonzero rational derivation coefficients decide
    conditions 1 and 3 as holding without a search.  ``overall`` is read
    from the three statuses: "fails" when any condition fails, "holds" when
    all hold, and "undecided" otherwise.
    """

    condition1: CriterionVerdict
    condition2: CriterionVerdict
    condition3: CriterionVerdict
    family: bool
    degree: int
    alpha_max: int

    @property
    def overall(self) -> str:
        verdicts = (self.condition1, self.condition2, self.condition3)
        statuses = {v.status for v in verdicts}
        if "fails" in statuses:
            return "fails"
        return "holds" if statuses == {"holds"} else "undecided"


def _in_univariate_family(A: GWPAData) -> bool:
    """Whether the data is in the univariate family: zero base bracket, one
    variable per pair, p_i = b_i d/dH_i, and a_i and b_i univariate in their
    own variable H_i.  Detection is conservative."""
    ring = A.base_ring
    if ring.nvars != A.rank or not A.base.is_trivial:
        return False
    return all(
        {own}.issuperset(a.variables_used())
        and all(v == i and {own}.issuperset(img.variables_used()) for v, img in der.moved)
        for i, (own, a, der) in enumerate(zip(ring.variables, A.a, A.partials))
    )


def _invariant_ideal_candidates(A: GWPAData) -> list[Polynomial]:
    """Deterministic candidate generators of invariant principal ideals:
    variables that every p_i and Hamiltonian derivation kills first, then
    derivation images, parameters and their derivatives.  Constants are
    never candidates."""
    candidates: list[Polynomial] = []

    def push(poly: Polynomial):
        if poly.is_zero or poly.is_constant:
            return
        if all(poly != seen for seen in candidates):
            candidates.append(poly)

    moved = _moved_variables(A)
    for j, g in enumerate(A.base_ring.gens()):
        if j not in moved:
            push(g)
    for der in A.partials:
        for _, img in der.moved:
            push(img)
    for a in A.a:
        push(a)
    for i in range(A.rank):
        push(A.p_of_a(i))
    return candidates


def _generates_invariant_ideal(A: GWPAData, c: Polynomial) -> bool:
    """Whether the principal ideal (c) is a Poisson ideal stable under all
    defining derivations: one stable under the family ``A.partials +
    A.base.hamiltonians``, so c divides its image under each member."""
    return all(divides(c, f(c)) for f in A.partials + A.base.hamiltonians)


def _general_condition1(A: GWPAData, degree: int) -> CriterionVerdict:
    candidates = _invariant_ideal_candidates(A)
    for c in candidates:
        if _generates_invariant_ideal(A, c):
            return CriterionVerdict(
                status="fails",
                witness=c,
                detail=(
                    "%s generates a proper Poisson ideal of the base ring "
                    "stable under every defining derivation" % c
                ),
            )
    ruled_out = []
    for c in candidates:
        report = poisson_ideal_closure(A, [A.scalar(c)], degree)
        if report.contains_unit:
            ruled_out.append(str(c))
    if ruled_out:
        evidence = "closures seeded with [%s] reach a unit at weight %d" % (
            ", ".join(ruled_out),
            degree,
        )
    else:
        evidence = (
            "no candidate closure reaches a unit at weight %d" % degree
        )
    return CriterionVerdict(
        status="undecided",
        detail=(
            "no invariant principal ideal among %d candidates; %s; a full "
            "search over invariant ideals is out of scope"
            % (len(candidates), evidence)
        ),
        truncation={"degree": degree},
    )


def _common_rational_zero(ring, f: Polynomial, g: Polynomial):
    """A point on a small integer grid where both polynomials vanish, or
    None.  A common zero certifies that the ideal (f, g) is proper."""
    if ring.nvars > 4:
        candidates = [tuple(0 for _ in range(ring.nvars))]
    else:
        candidates = itertools.product(range(-2, 3), repeat=ring.nvars)
    for point in candidates:
        images = {
            name: ring.const(value)
            for name, value in zip(ring.variables, point)
        }
        if f.substitute(images).is_zero and g.substitute(images).is_zero:
            return point
    return None


def _condition2(A: GWPAData) -> CriterionVerdict:
    """Whether each a_i and p_i(a_i) generate the base ring.  A nonzero
    constant settles a pair; one variable between them reduces it to a
    univariate gcd, which decides every pair of the univariate family."""
    ring = A.base_ring
    undecided = []
    for i, a in enumerate(A.a):
        da = A.p_of_a(i)
        if (a.is_constant and not a.is_zero) or (
            da.is_constant and not da.is_zero
        ):
            continue
        used = set(a.variables_used()) | set(da.variables_used())
        if not used:
            return CriterionVerdict(
                status="fails",
                witness=ring.zero(),
                detail=(
                    "a_%d and its derivative are both zero, so the ideal "
                    "they generate is zero" % (i + 1)
                ),
            )
        if len(used) == 1:
            g = univariate_gcd(a, da, next(iter(used)))
            if not g.is_constant:
                return CriterionVerdict(
                    status="fails",
                    witness=g,
                    detail=(
                        "gcd(a_%d, p_%d(a_%d)) = %s is nonconstant, so the "
                        "ideal they generate is proper" % (i + 1, i + 1, i + 1, g)
                    ),
                )
            continue
        point = _common_rational_zero(ring, a, da)
        if point is not None:
            return CriterionVerdict(
                status="fails",
                detail=(
                    "a_%d and p_%d(a_%d) both vanish at the point %r, so "
                    "the ideal they generate is proper"
                    % (i + 1, i + 1, i + 1, point)
                ),
            )
        undecided.append(i + 1)
    if undecided:
        return CriterionVerdict(
            status="undecided",
            detail=(
                "pairs %r are genuinely multivariate; ideal membership "
                "beyond the univariate case is out of scope" % undecided
            ),
        )
    return CriterionVerdict(
        status="holds",
        detail="each parameter is coprime to its own derivative",
    )


def simplicity_check(A: GWPAData, degree: int = 6, alpha_max: int = 4) -> SimplicityReport:
    """Evaluate the three simplicity conditions at the given bounds.

    In the univariate family, nonzero rational coefficients b_i (a constant
    coordinate cover) make conditions 1 and 3 hold exactly: the derivation
    constants collapse to the rationals.  Every other algebra, and every
    other member of the family, goes through the invariant-ideal search and
    :func:`field_criterion`.
    """
    degree, alpha_max = _bounds("bounds must be nonnegative", degree, alpha_max)
    family = _in_univariate_family(A)
    if family and _constant_coordinate_cover(A):
        condition1 = CriterionVerdict(
            status="holds",
            detail="every derivation coefficient is a nonzero rational",
        )
        condition3 = CriterionVerdict(
            status="holds",
            detail=(
                "constant nonzero derivation coefficients force the "
                "derivation constants down to the rationals and kill "
                "every nonzero-degree component"
            ),
        )
    else:
        condition1 = _general_condition1(A, degree)
        condition3 = field_criterion(A, degree, alpha_max)
    condition2 = _condition2(A)
    return SimplicityReport(
        condition1=condition1,
        condition2=condition2,
        condition3=condition3,
        family=family,
        degree=degree,
        alpha_max=alpha_max,
    )
