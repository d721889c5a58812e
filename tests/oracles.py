"""Independent oracles for the library bracket.

:func:`bracket_oracle_graded` evaluates the one-step graded formulas for a
bracket against a single basis term.  :func:`bracket_split` recomputes the
Poisson bracket of two generalized Weyl Poisson algebra elements by Leibniz
recursion: every basis term d v_alpha is factored into a word of atoms (the
coefficient d, then single generators X_i or Y_i), and the bracket of two
words is split by halving one of them until only brackets of atoms remain,
which the defining relations give directly.  It shares nothing with the
library's bracket kernel (``engine._bracket_pairs``, the closed form of
each term pair with cached derivation images) except the product, so
agreement checks that closed form and its caching.
:func:`derivation_chain_rule` applies a derivation term
by term from its generator images, as a check on the memoized
:meth:`BaseDerivation.__call__`.  :func:`biderivation_bracket` is the base
bracket from the dense matrix and formal partials, the reference for the
Hamiltonian form of :meth:`BasePoissonAlgebra.bracket`, which
:func:`bracket_split` itself reads for coefficient atoms.
:func:`validation_all_pairs` is :func:`gwpa.engine.validate_gwpa` with no
index pair skipped, each pair of derivations decided by its commutator on
every generator (:func:`commutator_image`).  :class:`TuplePolynomial` is the plain
arithmetic on exponent tuples and Fraction coefficients that the packed
:class:`gwpa.poly.Polynomial` kernel must agree with.  :class:`FractionEchelon`
and :func:`fraction_rref` are the eliminator on Fraction rows, normalized
to pivot one, that the integer :class:`gwpa.linalg.Echelon` must agree with.
:func:`dense_centre_kernel` is a centre slice from the dense Fraction matrix
of all its conditions, the reference for the sparse kernel and its
shortcuts.  :func:`dense_univariate_gcd` is Euclid's algorithm on dense
Fraction coefficient lists, the reference for
:func:`gwpa.poly.univariate_gcd`; :func:`dense_remainder` on the same lists
also checks divisibility of simplicity witnesses.  :func:`check_verdict`
checks an exact simplicity verdict from its witness or from the premise of
its shortcut with these routines and :func:`divides_exactly`, a division
on exponent tuples, and none of the centre, simplicity or bracket-kernel
code that produced the verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from gwpa.engine import GWPAData, GWPAElement, ValidationReport, Violation
from gwpa.errors import GwpaError
from gwpa.poisson import (
    BaseDerivation,
    BasePoissonAlgebra,
    is_poisson_derivation,
)
from gwpa.poly import Polynomial

# Atoms are ("c", polynomial) for base coefficients and ("X", i) / ("Y", i)
# with zero-based index for single generators.


def _atoms_of(alpha, coeff) -> list:
    atoms = []
    if not coeff.is_constant or coeff.constant_value() != 1:
        atoms.append(("c", coeff))
    for i, x in enumerate(alpha):
        if x > 0:
            atoms.extend([("X", i)] * x)
        elif x < 0:
            atoms.extend([("Y", i)] * (-x))
    return atoms


def _atom_term(A, atom):
    kind, payload = atom
    if kind == "c":
        return A.scalar(payload)
    return A.X(payload + 1) if kind == "X" else A.Y(payload + 1)


def _atom_bracket(A, left, right):
    """Bracket of two atoms from the defining relations."""
    lk, lp = left
    rk, rp = right
    if lk == "c" and rk == "c":
        return A.scalar(A.base.bracket(lp, rp))
    if lk == "c":  # {d, X_i} = p_i(d) X_i and {d, Y_i} = -p_i(d) Y_i
        sign = 1 if rk == "X" else -1
        return A.scalar(A.partials[rp](lp) * sign) * _atom_term(A, right)
    if rk == "c":
        sign = -1 if lk == "X" else 1
        return A.scalar(A.partials[lp](rp) * sign) * _atom_term(A, left)
    if lp != rp or lk == rk:
        return A.zero()
    poly = A.partials[lp](A.a[lp])
    if lk == "X":  # {X_i, Y_i} = -p_i(a_i)
        poly = -poly
    return A.scalar(poly)


def _word_product(A, atoms):
    term = A.one()
    for atom in atoms:
        term = term * _atom_term(A, atom)
    return term


def _bracket_words(A, left: list, right: list):
    """Leibniz recursion: halve the left word down to one atom, then the right."""
    if not left or not right:
        return A.zero()
    if len(left) == 1 and len(right) == 1:
        return _atom_bracket(A, left[0], right[0])
    if len(left) > 1:
        mid = len(left) // 2
        head, tail = left[:mid], left[mid:]
        return (
            _word_product(A, head) * _bracket_words(A, tail, right)
            + _bracket_words(A, head, right) * _word_product(A, tail)
        )
    mid = len(right) // 2
    head, tail = right[:mid], right[mid:]
    return (
        _bracket_words(A, left, head) * _word_product(A, tail)
        + _word_product(A, head) * _bracket_words(A, left, tail)
    )


def bracket_split(u, v):
    """The bracket {u, v} by Leibniz recursion over factorizations."""
    A = u.algebra
    total = A.zero()
    for alpha, d in u.items():
        atoms_u = _atoms_of(alpha, d)
        for beta, e in v.items():
            total = total + _bracket_words(A, atoms_u, _atoms_of(beta, e))
    return total


def bracket_oracle_graded(A: GWPAData, first, lam: Polynomial, alpha: Sequence[int]) -> GWPAElement:
    """Closed graded formulas for brackets against a basis term lam v_alpha.

    ``first`` is either a base polynomial d, using

        {d, lam v_alpha} = (-{lam, -} + lam sum_i alpha_i p_i)(d) v_alpha,

    or a single generator X_i or Y_i (as a GWPAElement), using the one-step
    shift formula with its sign and correction cases.  This evaluates the
    formulas directly, without the term-pair closed form, and exists to
    cross-check :meth:`GWPAElement.bracket`.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != A.rank:
        raise GwpaError("degree tuple must have length %d" % A.rank)
    if lam.ring != A.base_ring:
        raise GwpaError("coefficient lives over a different ring")
    if isinstance(first, Polynomial):
        d = first
        coeff = -A.base.bracket(lam, d)
        for i, x in enumerate(alpha):
            if x:
                coeff = coeff + lam * A.partials[i](d) * x
        return GWPAElement(A, {alpha: coeff})
    if isinstance(first, GWPAElement):
        sign, index = _single_generator(first)
        i = index
        p_lam = A.partials[i](lam)
        shifted = list(alpha)
        shifted[i] += sign
        shifted = tuple(shifted)
        x = alpha[i]
        if x == 0 or (x > 0) == (sign > 0):
            coeff = p_lam * (-sign)
        else:
            coeff = p_lam * (-sign) * A.a[i] + lam * x * A.partials[i](A.a[i])
        return GWPAElement(A, {shifted: coeff})
    raise GwpaError("first argument must be a base polynomial or a single generator")


def _single_generator(u: GWPAElement) -> tuple[int, int]:
    """(sign, zero-based index) when u is exactly X_i or Y_i."""
    if len(u.items()) != 1:
        raise GwpaError("expected a single generator element")
    (alpha, poly), = u.items()
    if not (poly.is_constant and poly.constant_value() == 1):
        raise GwpaError("expected a single generator element")
    nonzero = [(i, x) for i, x in enumerate(alpha) if x]
    if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
        raise GwpaError("expected a single generator element")
    i, x = nonzero[0]
    return (1 if x > 0 else -1), i


def derivation_chain_rule(der: BaseDerivation, f: Polynomial) -> Polynomial:
    """D(f) as the sum, over terms c x^e of f and variables x_v, of
    c e_v x^(e - 1_v) D(x_v), with no memo."""
    ring = f.ring
    out = ring.zero()
    for exps, coeff in f.items():
        for v, (e, image) in enumerate(zip(exps, der.images)):
            if e:
                lowered = exps[:v] + (e - 1,) + exps[v + 1 :]
                out = out + ring.monomial(lowered, coeff * e) * image
    return out


def commutator_image(first: BaseDerivation, second: BaseDerivation, f: Polynomial) -> Polynomial:
    """[first, second](f) by :func:`derivation_chain_rule`, with no memo."""
    chain = derivation_chain_rule
    return chain(first, chain(second, f)) - chain(second, chain(first, f))


def biderivation_bracket(base: BasePoissonAlgebra, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} as the sum over every entry of the dense bracket matrix of
    {x_j, x_k} df/dx_j dg/dx_k, with the formal partials of
    :meth:`Polynomial.partial`: the reference for the Hamiltonian form of
    :meth:`BasePoissonAlgebra.bracket`."""
    names = base.ring.variables
    return sum(
        (
            entry * f.partial(names[j]) * g.partial(names[k])
            for j, row in enumerate(base.matrix)
            for k, entry in enumerate(row)
        ),
        base.ring.zero(),
    )


def validation_all_pairs(data: GWPAData) -> ValidationReport:
    """The report of :func:`gwpa.engine.validate_gwpa` from its checks in
    their order, each over every index pair with no pair skipped; p_i(a_j)
    and the commutator of each pair on every generator are taken by
    :func:`derivation_chain_rule`."""
    base, partials, n = data.base, data.partials, data.rank
    gens = base.ring.gens()
    found = [
        Violation(
            "poisson-derivation", (i + 1,), "derivation %d does not respect the base bracket" % (i + 1)
        )
        for i, der in enumerate(partials)
        if not is_poisson_derivation(base, der)
    ]
    found += [
        Violation(
            "commuting-derivations", (i + 1, j + 1), "derivations %d and %d do not commute" % (i + 1, j + 1)
        )
        for i in range(n)
        for j in range(i + 1, n)
        if not all(commutator_image(partials[i], partials[j], g).is_zero for g in gens)
    ]
    for i, poly in enumerate(data.a):
        for name, g in zip(base.ring.variables, gens):
            diff = biderivation_bracket(base, poly, g)
            if not diff.is_zero:
                detail = "parameter %d is not Poisson central: {a, %s} = %s" % (i + 1, name, diff)
                found.append(Violation("central-parameter", (i + 1,), detail))
                break
    for i, der in enumerate(partials):
        for j, poly in enumerate(data.a):
            if i != j and not (image := derivation_chain_rule(der, poly)).is_zero:
                detail = "derivation %d must annihilate parameter %d, got %s" % (
                    i + 1, j + 1, image
                )
                found.append(Violation("cross-constant", (i + 1, j + 1), detail))
    return ValidationReport(tuple(found))


def _normal(value):
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class TuplePolynomial:
    """Reference polynomial: a map from exponent tuples to nonzero int or
    Fraction coefficients, with schoolbook arithmetic on those tuples.

    ``terms``, ``str`` and the hash formula are what the library's
    ``Polynomial.terms()``, ``str`` and ``hash`` must reproduce.
    """

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = {tuple(e): _normal(c) for e, c in terms.items() if c}

    @classmethod
    def of(cls, poly: Polynomial) -> "TuplePolynomial":
        return cls(poly.ring.variables, poly.terms())

    def _new(self, terms) -> "TuplePolynomial":
        return TuplePolynomial(self.variables, terms)

    def _const(self, value) -> "TuplePolynomial":
        return self._new({(0,) * len(self.variables): value})

    def __add__(self, other):
        if not isinstance(other, TuplePolynomial):
            other = self._const(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return self._new(out)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TuplePolynomial):
            return self._new({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return self._new(out)

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, n: int):
        result = self._const(1)
        for _ in range(n):
            result = result * self
        return result

    def partial(self, i: int) -> "TuplePolynomial":
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                out[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]] = c * exps[i]
        return self._new(out)

    def substitute(self, images: dict) -> "TuplePolynomial":
        """Replace the variable of index i by ``images[i]``."""
        n = len(self.variables)
        total = self._new({})
        for exps, c in self.terms.items():
            term = self._const(c)
            for i, e in enumerate(exps):
                unit = tuple(int(j == i) for j in range(n))
                term = term * images.get(i, self._new({unit: 1})) ** e
            total = total + term
        return total

    def weighted_component(self, weights, degree) -> "TuplePolynomial":
        return self._new(
            {
                e: c
                for e, c in self.terms.items()
                if sum(x * w for x, w in zip(e, weights)) == degree
            }
        )

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def hash_value(self) -> int:
        """A constant hashes as its value, which it equals; any other
        polynomial as its variables and sorted terms."""
        if not any(map(any, self.terms)):
            return hash(self.terms.get((0,) * len(self.variables), 0))
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __str__(self):
        ordered = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        if not ordered:
            return "0"
        pieces = []
        for k, (exps, c) in enumerate(ordered):
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.variables, exps)
                if e
            )
            mag = abs(c)
            body = str(mag) if not mono else mono if mag == 1 else "%s*%s" % (mag, mono)
            if k == 0:
                pieces.append("-" + body if c < 0 else body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)


# -- the eliminator on Fraction rows ------------------------------------------


def _axpy(target: dict, factor, row: dict) -> None:
    """``target -= factor * row`` in place, dropping entries that cancel."""
    for idx, value in row.items():
        acc = target.get(idx, 0) - factor * value
        if acc:
            target[idx] = _normal(acc)
        else:
            target.pop(idx, None)


class FractionEchelon:
    """Incrementally row-reduced span over sparse Fraction rows.

    ``rows`` maps each pivot column to its row, whose smallest column is
    that pivot, with entry one.  A new row clears its lead from the other
    rows but is not reduced above later pivots.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    def reduce(self, vec: dict) -> dict | None:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            _axpy(vec, vec[lead], row)
        return None

    def insert(self, vec: dict) -> dict | None:
        reduced = self.reduce(vec)
        if reduced is None:
            return None
        lead = min(reduced)
        inv = 1 / Fraction(reduced[lead])
        row = {idx: _normal(value * inv) for idx, value in reduced.items()}
        for other in self.rows.values():
            if lead in other:
                _axpy(other, other[lead], row)
        self.rows[lead] = row
        return row


def fraction_rref(matrix: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivots by :class:`FractionEchelon` and
    back-substitution, last pivot first."""
    if not matrix:
        return [], []
    echelon = FractionEchelon()
    for row in matrix:
        echelon.insert({col: _normal(v) for col, v in enumerate(row) if v})
    pivots = sorted(echelon.rows)
    for pcol in reversed(pivots):
        prow = echelon.rows[pcol]
        for lead, other in echelon.rows.items():
            if lead < pcol and pcol in other:
                _axpy(other, other[pcol], prow)
    columns = range(len(matrix[0]))
    return [[echelon.rows[p].get(col, 0) for col in columns] for p in pivots], pivots


def dense_centre_kernel(A: GWPAData, alpha: Sequence[int], degree: int) -> tuple:
    """Basis of the centre slice {lambda : lambda v_alpha central, deg lambda
    <= degree}, the reference for :func:`gwpa.centre.centre_component`.

    Every condition of the slice (each defining derivation, {-, g} - E(g)
    for each base generator g with E = sum_i alpha_i p_i, and multiplication
    by each alpha_i p_i(a_i)) contributes one dense Fraction row per result
    monomial, with no operator dropped and no shortcut; :func:`fraction_rref`
    reduces them.  One basis element per free monomial, ascending in graded
    order: total degree, then exponent tuples lexicographically.
    """
    ring = A.base_ring
    operators = list(A.partials)
    for g in ring.gens():
        drift = sum((A.partials[i](g) * k for i, k in enumerate(alpha)), ring.zero())
        operators.append(lambda lam, g=g, drift=drift: A.base.bracket(lam, g) - lam * drift)
    for i, k in enumerate(alpha):
        operators.append(lambda lam, kill=A.partials[i](A.a[i]) * k: lam * kill)
    monos = sorted(
        (exps for exps in product(range(degree + 1), repeat=ring.nvars) if sum(exps) <= degree),
        key=lambda exps: (sum(exps), exps),
    )
    rows: dict = {}
    for col, exps in enumerate(monos):
        for k, op in enumerate(operators):
            for r_exps, coeff in op(ring.monomial(exps)).items():
                row = rows.setdefault((k, r_exps), [Fraction(0)] * len(monos))
                row[col] = Fraction(coeff)
    reduced, pivots = fraction_rref(list(rows.values()))
    basis = []
    for free in range(len(monos)):
        if free in pivots:
            continue
        lam = ring.monomial(monos[free])
        for row, pcol in zip(reduced, pivots):
            lam = lam - ring.monomial(monos[pcol], row[free])
        basis.append(lam)
    return tuple(basis)


# -- univariate gcd on dense Fraction coefficient lists ------------------------


def dense_coefficients(poly: Polynomial, name: str) -> list:
    """Dense ascending Fraction coefficients of a polynomial in the one
    variable ``name``; empty for zero."""
    i = poly.ring.index(name)
    coeffs = [Fraction(0)] * (max([e[i] for e in poly.terms()], default=-1) + 1)
    for exps, c in poly.items():
        assert sum(exps) == exps[i], "%s is not univariate in %s" % (poly, name)
        coeffs[exps[i]] = Fraction(c)
    return coeffs


def dense_remainder(num: list, den: list) -> list:
    """Remainder of classic division of dense ascending Fraction lists; the
    divisor has a nonzero last entry."""
    rem = num[:]
    while rem and rem[-1] == 0:
        rem.pop()
    while len(rem) >= len(den):
        factor = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        for k, c in enumerate(den):
            rem[shift + k] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def dense_univariate_gcd(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """Monic gcd of two polynomials in the one variable ``name`` by Euclid on
    dense ascending coefficient lists; zero when both inputs are zero."""
    ring = f.ring
    i = ring.index(name)
    a, b = dense_coefficients(f, name), dense_coefficients(g, name)
    while b:
        a, b = b, dense_remainder(a, b)
    if not a:
        return ring.zero()
    return sum(
        (ring.monomial([e if j == i else 0 for j in range(ring.nvars)], c / a[-1])
         for e, c in enumerate(a)),
        ring.zero(),
    )


# -- independent checks of simplicity verdicts ---------------------------------


def _graded(exps: tuple[int, ...]) -> tuple:
    return sum(exps), exps


def divides_exactly(c: Polynomial, f: Polynomial) -> bool:
    """Whether the nonzero c divides f, by dividing leading terms in graded
    order on exponent tuples and Fraction coefficients.  A single divisor
    is a Groebner basis of its ideal, so the division stops at zero exactly
    when c divides f; a leading term that c's does not divide ends it."""
    divisor = {exps: Fraction(coeff) for exps, coeff in c.items()}
    lead = max(divisor, key=_graded)
    rest = {exps: Fraction(coeff) for exps, coeff in f.items()}
    while rest:
        top = max(rest, key=_graded)
        shift = tuple(e - d for e, d in zip(top, lead))
        if min(shift) < 0:
            return False
        factor = rest[top] / divisor[lead]
        for exps, coeff in divisor.items():
            key = tuple(e + s for e, s in zip(exps, shift))
            rest[key] = rest.get(key, 0) - factor * coeff
            if not rest[key]:
                del rest[key]
    return True


def _value(f: Polynomial, point: Sequence[int]) -> Fraction:
    total = Fraction(0)
    for exps, coeff in f.items():
        term = Fraction(coeff)
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def _coordinate_cover(A: GWPAData) -> bool:
    """Whether every base variable is the only one some p_i moves, by a
    nonzero constant: then no proper ideal is stable under the p_i, and the
    constants of the p_i are the rationals."""
    covered = set()
    for der in A.partials:
        moved = [(v, image) for v, image in enumerate(der.images) if not image.is_zero]
        if len(moved) == 1 and moved[0][1].is_constant:
            covered.add(moved[0][0])
    return len(covered) == A.base_ring.nvars


def check_verdict(A: GWPAData, condition: int, verdict) -> None:
    """Assert that an exact verdict on simplicity condition 1, 2 or 3 is
    borne out by its witness, or by the premise its shortcut names, with
    the routines of this module only; an undecided verdict passes.

    Condition 1 fails on a nonconstant c that divides its image under every
    p_i and every {-, x_k}, and holds on a coordinate cover.  Condition 2
    fails on a zero pair, on a nonconstant common divisor of some a_i and
    p_i(a_i), or, with no witness, on their common zero on the grid of
    ``simplicity`` ({-2..2}^n up to four variables, else the origin); it
    holds when each pair has a nonzero constant or a univariate gcd of 1.
    Condition 3 fails on a central non-unit, and holds on a zero base
    bracket with a coordinate cover and every p_i(a_i) nonzero.
    """
    ring, status, witness = A.base_ring, verdict.status, verdict.witness
    if status == "undecided":
        return
    assert status in ("holds", "fails"), status
    gens = ring.gens()
    pairs = [(a, derivation_chain_rule(der, a)) for a, der in zip(A.a, A.partials)]
    if (condition, status) == (1, "fails"):
        images = [derivation_chain_rule(der, witness) for der in A.partials]
        images += [biderivation_bracket(A.base, witness, g) for g in gens]
        assert not witness.is_constant and all(divides_exactly(witness, f) for f in images)
    elif (condition, status) == (2, "fails") and witness is None:
        grid = [(0,) * ring.nvars]
        if ring.nvars <= 4:
            grid = product(range(-2, 3), repeat=ring.nvars)
        assert any(_value(f, p) == 0 == _value(g, p) for p in grid for f, g in pairs)
    elif (condition, status) == (2, "fails") and witness.is_zero:
        assert any(f.is_zero and g.is_zero for f, g in pairs)
    elif (condition, status) == (2, "fails"):
        assert not witness.is_constant
        assert any(divides_exactly(witness, f) and divides_exactly(witness, g) for f, g in pairs)
    elif (condition, status) == (2, "holds"):
        for f, g in pairs:
            if not any(h.is_constant and not h.is_zero for h in (f, g)):
                used = set(f.variables_used()) | set(g.variables_used())
                assert len(used) == 1, used
                assert dense_univariate_gcd(f, g, used.pop()) == ring.one()
    elif (condition, status) == (3, "fails"):
        if isinstance(witness, Polynomial):
            alpha, lam = (0,) * A.rank, witness
        else:
            ((alpha, lam),) = witness.items()
        firsts = [*gens, *(A.X(i) for i in range(1, A.rank + 1))]
        firsts += [A.Y(i) for i in range(1, A.rank + 1)]
        assert all(not bracket_oracle_graded(A, u, lam, alpha).items() for u in firsts)
        assert not (
            lam.is_constant and not lam.is_zero
            and all(a.is_constant and not a.is_zero for a, x in zip(A.a, alpha) if x)
        ), "%s is a unit" % witness
    elif condition == 3:
        assert all(entry.is_zero for row in A.base.matrix for entry in row)
        assert _coordinate_cover(A) and all(not g.is_zero for _, g in pairs)
    else:
        assert condition == 1, condition
        assert _coordinate_cover(A)
