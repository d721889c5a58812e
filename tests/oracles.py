"""Independent oracles for the library bracket.

:func:`bracket_oracle_graded` evaluates the one-step graded formulas for a
bracket against a single basis term.  :func:`bracket_split` recomputes the
Poisson bracket of two generalized Weyl Poisson algebra elements by Leibniz
recursion: every basis term d v_alpha is factored into a word of atoms (the
coefficient d, then single generators X_i or Y_i), and the bracket of two
words is split by halving one of them until only brackets of atoms remain,
which the defining relations give directly.  It shares nothing with the
library's closed-form term bracket except the product, so agreement checks
that closed form.  :func:`derivation_chain_rule` applies a derivation term
by term from its generator images, as a check on the memoized
:meth:`BaseDerivation.__call__`.  :class:`TuplePolynomial` is the plain
arithmetic on exponent tuples and Fraction coefficients that the packed
:class:`gwpa.poly.Polynomial` kernel must agree with.  :class:`FractionEchelon`
and :func:`fraction_rref` are the eliminator on Fraction rows, normalized
to pivot one, that the integer :class:`gwpa.linalg.Echelon` must agree with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from gwpa.engine import GWPAData, GWPAElement
from gwpa.errors import GwpaError
from gwpa.poisson import BaseDerivation
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
