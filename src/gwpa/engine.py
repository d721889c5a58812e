"""Generalized Weyl Poisson algebras over polynomial base rings.

An algebra of rank n is built from a base Poisson algebra D, central
parameters a_1..a_n and commuting Poisson derivations p_1..p_n with
p_i(a_j) = 0 for i != j.  As a commutative ring it is D[X_1..X_n, Y_1..Y_n]
modulo X_i Y_i = a_i, graded over Z^n with components D v_alpha, where
v_alpha collects X powers for positive coordinates and Y powers for negative
ones.  The Poisson bracket is determined by

    {Y_i, d} = p_i(d) Y_i,   {X_i, d} = -p_i(d) X_i,   {Y_i, X_i} = p_i(a_i)

for d in D, all brackets between generators of different index vanishing.
Elements are kept in graded normal form at all times.  The bracket of two
elements is the bilinear sum of a closed form for each pair of basis terms,
computed by one kernel (:func:`_bracket_pairs`): the images of each
operand term under the p_i and the Hamiltonian derivations {-, x_k} are
taken once and kept on the element, each pair's base part, base bracket
included, is one accumulation (:func:`gwpa.poly._combination`), and the
overlap product P and its correction Q, which depend only on where the two
terms meet in opposite signs, are kept on the algebra per overlap pattern.

The graded normal form is shared with the generalized Weyl algebras of
:mod:`gwpa.quant`, whose associated graded objects are these Poisson
algebras: :class:`GradedElement` and :class:`GradedAlgebra` carry the common
representation, and :func:`_graded_mul` is the one product loop, specialised
by a twist and a contraction hook on the algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    AlgebraMismatchError,
    AmbientMismatchError,
    GwpaError,
    ValidationFailure,
)
from .poisson import (
    BaseDerivation,
    BasePoissonAlgebra,
    derivations_commute,
    is_poisson_derivation,
)
from .poly import _MASK, NEG_INF, Polynomial, PolyRing, _combination, _integers, join_signed
from .poly import normalize_coeff, power, term_string


@dataclass(frozen=True)
class Violation:
    """One failed structural constraint, with one-based indices."""

    condition: str
    indices: tuple[int, ...]
    detail: str

    def __str__(self):
        return "%s%r: %s" % (self.condition, list(self.indices), self.detail)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# -- graded normal form --------------------------------------------------------


def _accumulate(out: dict, key, poly: Polynomial) -> None:
    """Add ``poly`` into ``out[key]``, dropping the entry when it cancels."""
    acc = out.get(key)
    acc = poly if acc is None else acc + poly
    if acc.is_zero:
        out.pop(key, None)
    else:
        out[key] = acc


def _degree_order(alpha: tuple[int, ...]):
    """Sort key of the grading degrees: by sum of |alpha_i|, then by
    descending entries (X powers before Y powers)."""
    return sum(map(abs, alpha)), tuple(-x for x in alpha)


class GradedElement:
    """Element in graded normal form: a map from Z^n degrees alpha to nonzero
    base polynomial coefficients d, read as the sum of the terms d v_alpha.

    Ints, Fractions and base polynomials act as scalars in every operation;
    a polynomial over another ring raises :class:`AmbientMismatchError`.
    A scalar, whose only degree is zero, hashes as its coefficient.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: "GradedAlgebra", terms: Mapping):
        ring = algebra.base_ring
        clean: dict[tuple[int, ...], Polynomial] = {}
        for alpha, poly in dict(terms).items():
            alpha = algebra._read_degree(alpha)
            if not isinstance(poly, Polynomial):
                poly = ring.const(poly)
            elif poly.ring != ring:
                raise AmbientMismatchError(ring.variables, poly.ring.variables)
            if not poly.is_zero:
                clean[alpha] = poly
        self.algebra = algebra
        self._terms = clean

    def _new(self, terms: dict):
        """An element of the same algebra from a term map in normal form."""
        element = object.__new__(type(self))
        element.algebra = self.algebra
        element._terms = terms
        return element

    def _operand(self, other):
        """``other`` as an element of this algebra, NotImplemented if foreign."""
        if isinstance(other, GradedElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise AlgebraMismatchError("elements belong to different algebras")
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.algebra.scalar(other)
        return NotImplemented

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[tuple[int, ...], Polynomial]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self._terms, key=_degree_order)

    def coefficient(self, alpha: Sequence[int]) -> Polynomial:
        alpha = self.algebra._read_degree(alpha)
        return self._terms.get(alpha, self.algebra.base_ring.zero())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for alpha, poly in other._terms.items():
            _accumulate(out, alpha, poly)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({alpha: -poly for alpha, poly in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(_graded_mul(self.algebra, self._terms, other._terms))

    def __rmul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int):
        """Nonnegative integer powers, by repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise GwpaError("element powers must be nonnegative integers")
        zero_alpha = self.algebra.zero_alpha
        if len(self._terms) == 1 and zero_alpha in self._terms:
            # a base scalar: the polynomial power checks its degree first
            return self.algebra.scalar(self._terms[zero_alpha] ** exponent)
        return power(self, exponent, self.algebra.one())

    # -- comparison and rendering -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        zero_alpha = self.algebra.zero_alpha
        if self._terms.keys() <= {zero_alpha}:  # equal to its coefficient
            return hash(self._terms.get(zero_alpha, 0))
        return hash((self.algebra, frozenset(self._terms.items())))

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


_GENERATOR_NAME = re.compile(r"[XY][0-9]+")


class GradedAlgebra:
    """Element constructors shared by the Poisson and quantized algebras.

    A subclass provides the parameters ``a`` (one per coordinate, so their
    count is the ``rank``), ``base_ring``, the ``element_type`` it builds,
    and the two product hooks read by :func:`_graded_mul`:
    ``apply_sigma_alpha(alpha, poly)``, the twist of a coefficient moved
    past v_alpha, and ``contraction_factor(i, p, q)``, the base factor left
    in coordinate i when v_p meets v_q.
    """

    @staticmethod
    def _check_base_names(ring: PolyRing) -> None:
        """Reject base variables that would read as a generator X_i or Y_i."""
        for name in ring.variables:
            if _GENERATOR_NAME.fullmatch(name):
                raise GwpaError(
                    "base variable %r clashes with the generator names Xi, Yi"
                    % name
                )

    @property
    def rank(self) -> int:
        return len(self.a)

    @property
    def zero_alpha(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def _read_degree(self, alpha: Sequence[int]) -> tuple[int, ...]:
        """A caller's grading degree as a tuple of ints of this rank;
        GwpaError for any other entry or length."""
        alpha = _integers(alpha, "degree tuple %r must hold integers")
        if len(alpha) != self.rank:
            raise GwpaError("degree tuple %r does not match rank %d" % (alpha, self.rank))
        return alpha

    def element(self, terms: Mapping[tuple[int, ...], Polynomial]):
        return self.element_type(self, terms)

    def zero(self):
        return self.element_type(self, {})

    def one(self):
        return self.scalar(1)

    def scalar(self, value):
        """Image of a base polynomial (or rational constant) in the algebra."""
        return self.element_type(self, {self.zero_alpha: value})

    def v(self, alpha: Sequence[int]):
        """The graded basis monomial of the given degree, coefficient one."""
        return self.element_type(self, {tuple(alpha): self.base_ring.one()})

    def X(self, i: int):
        return self.v(self._unit(i, 1))

    def Y(self, i: int):
        return self.v(self._unit(i, -1))

    def _unit(self, i: int, sign: int) -> tuple[int, ...]:
        (i,) = _integers((i,), "generator index must be an integer, got %r")
        if not 1 <= i <= self.rank:
            raise GwpaError("generator index %d out of range 1..%d" % (i, self.rank))
        return tuple(sign if j == i - 1 else 0 for j in range(self.rank))


def _graded_mul(A: GradedAlgebra, left: dict, right: dict) -> dict:
    """Product of two term maps in graded normal form.

    Moving a coefficient e left past v_alpha twists it to sigma_alpha(e).
    Per coordinate, opposite X and Y powers annihilate into a base factor:
    a_i^min(|p|, |q|) in a Poisson algebra, a product of shifted parameters
    in a generalized Weyl algebra.
    """
    twist = A.apply_sigma_alpha
    contract = A.contraction_factor
    out: dict[tuple[int, ...], Polynomial] = {}
    for alpha, d in left.items():
        for beta, e in right.items():
            coeff = d * twist(alpha, e)
            for i, (p, q) in enumerate(zip(alpha, beta)):
                if p and q and (p > 0) != (q > 0):
                    coeff = coeff * contract(i, p, q)
            _accumulate(out, tuple(map(add, alpha, beta)), coeff)
    return out


# -- the Poisson algebra -------------------------------------------------------


class GWPAElement(GradedElement):
    """Element of a generalized Weyl Poisson algebra."""

    __slots__ = ("_images",)  # filled by :func:`_image_rows`

    def component(self, alpha: Sequence[int]) -> "GWPAElement":
        return self.algebra.element({tuple(alpha): self.coefficient(alpha)})

    @property
    def total_degree(self):
        """Filtration weight: coefficient degree plus sum of |alpha_i|."""
        if not self._terms:
            return NEG_INF
        return max(
            sum(abs(x) for x in alpha) + poly.total_degree
            for alpha, poly in self._terms.items()
        )

    def scaled(self, factor) -> "GWPAElement":
        """Multiply every coefficient by a base polynomial or rational."""
        return self * self.algebra.scalar(factor)

    __mul__ = GradedElement.__mul__  # bench/tracer.py wraps the class's own entry

    def bracket(self, other: "GWPAElement") -> "GWPAElement":
        """Poisson bracket, summed over pairs of basis terms."""
        operand = self._operand(other)
        if operand is NotImplemented:
            raise GwpaError("cannot take a bracket with %r" % (other,))
        return self._new(_bracket_pairs(self.algebra, self, operand))


@dataclass(frozen=True)
class GWPAData(GradedAlgebra):
    """Defining data of a generalized Weyl Poisson algebra.

    Construction checks only shapes; run :func:`validate_gwpa` (or build via
    :meth:`checked`) to verify the structural constraints.
    """

    base: BasePoissonAlgebra
    a: tuple[Polynomial, ...]
    partials: tuple[BaseDerivation, ...]

    element_type = GWPAElement

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "partials", tuple(self.partials))
        if len(self.a) != len(self.partials) or not self.a:
            raise GwpaError("need equally many parameters and derivations, at least one")
        self._check_base_names(self.base.ring)
        for poly in self.a:
            if poly.ring != self.base.ring:
                raise GwpaError("parameter polynomial lives over a different ring")
        for der in self.partials:
            if der.ring != self.base.ring:
                raise GwpaError("derivation lives over a different ring")
        object.__setattr__(self, "_a_powers", {})
        object.__setattr__(self, "_p_of_a", {})
        object.__setattr__(self, "_overlaps", {})

    @classmethod
    def checked(cls, base, a, partials) -> "GWPAData":
        """Build and validate, raising :class:`ValidationFailure` on bad data."""
        data = cls(base, a, partials)
        report = validate_gwpa(data)
        if not report.ok:
            raise ValidationFailure(report)
        return data

    @property
    def base_ring(self) -> PolyRing:
        return self.base.ring

    def a_power(self, i: int, m: int) -> Polynomial:
        """Cached m-th power of the zero-based i-th parameter."""
        key = (i, m)
        cache = self._a_powers
        if key not in cache:
            cache[key] = self.a[i] ** m
        return cache[key]

    def p_of_a(self, i: int) -> Polynomial:
        """Cached p_i(a_i) for the zero-based index i."""
        cache = self._p_of_a
        if i not in cache:
            cache[i] = self.partials[i](self.a[i])
        return cache[i]

    def overlap_factors(self, overlaps) -> tuple[Polynomial, Polynomial]:
        """The base factors of a term pair that meets opposite signs, cached
        per overlap pattern, a tuple of (i, m_i, w_i) with m_i the overlap
        in coordinate i and w_i = |alpha_i| beta_i: the product
        P = prod a_i^{m_i} and the correction
        Q = sum w_i p_i(a_i) a_i^{m_i - 1} prod_{j != i} a_j^{m_j}."""
        value = self._overlaps.get(overlaps)
        if value is None:
            product, correction = None, self.base_ring.zero()
            for i, m, weight in overlaps:
                power = self.a_power(i, m)
                product = power if product is None else product * power
                piece = self.p_of_a(i) * weight
                if piece.is_zero:
                    continue
                piece = piece * self.a_power(i, m - 1)
                for j, mj, _ in overlaps:
                    if j != i:
                        piece = piece * self.a_power(j, mj)
                correction = correction + piece if correction._terms else piece
            value = self._overlaps[overlaps] = (product, correction)
        return value

    def apply_sigma_alpha(self, alpha, poly: Polynomial) -> Polynomial:
        """Coefficients commute with v_alpha: the twist is the identity."""
        return poly

    def contraction_factor(self, i: int, p: int, q: int) -> Polynomial:
        """The coefficient produced in coordinate i when v_p meets v_q."""
        if p and q and (p > 0) != (q > 0):
            return self.a_power(i, min(abs(p), abs(q)))
        return self.base_ring.one()

    def generators(self) -> list[GWPAElement]:
        """X_i, Y_i and the base variables, in a fixed order."""
        gens = []
        for i in range(1, self.rank + 1):
            gens.append(self.X(i))
            gens.append(self.Y(i))
        for name in self.base_ring.variables:
            gens.append(self.scalar(self.base_ring.var(name)))
        return gens

    def __repr__(self):
        return "GWPAData(rank %d over %r)" % (self.rank, self.base_ring)


def validate_gwpa(data: GWPAData) -> ValidationReport:
    """Check the structural constraints of the defining data.

    Violations are returned as data rather than raised, so callers can
    render a full report.
    """
    violations: list[Violation] = []
    base = data.base
    gens = base.ring.gens()
    names = base.ring.variables
    for i, der in enumerate(data.partials):
        if not is_poisson_derivation(base, der):
            violations.append(
                Violation(
                    "poisson-derivation",
                    (i + 1,),
                    "derivation %d does not respect the base bracket" % (i + 1),
                )
            )
    # p(f) = 0 unless f uses a variable that p moves, and a commutator of
    # derivations is a derivation, so p_i(a_j) needs checking only then, and
    # [p_i, p_j] only when one moves a variable that an image of the other uses
    movers: dict[str, list[int]] = {}
    for i, der in enumerate(data.partials):
        for v, _ in der.moved:
            movers.setdefault(names[v], []).append(i)

    def acting(polys, j) -> set[int]:
        return {i for poly in polys for name in poly.variables_used()
                for i in movers.get(name, ()) if i != j}

    linked = {(min(i, j), max(i, j)) for j, der in enumerate(data.partials)
              for i in acting([image for _, image in der.moved], j)}
    violations += [
        Violation("commuting-derivations", (i + 1, j + 1),
                  "derivations %d and %d do not commute" % (i + 1, j + 1))
        for i, j in sorted(linked)
        if not derivations_commute((data.partials[i], data.partials[j]))
    ]
    for i, poly in enumerate(data.a):
        for g, name in zip(gens, names):
            diff = base.bracket(poly, g)
            if not diff.is_zero:
                violations.append(
                    Violation(
                        "central-parameter",
                        (i + 1,),
                        "parameter %d is not Poisson central: {a, %s} = %s"
                        % (i + 1, name, diff),
                    )
                )
                break
    violations += [
        Violation("cross-constant", (i + 1, j + 1),
                  "derivation %d must annihilate parameter %d, got %s" % (i + 1, j + 1, image))
        for i, j in sorted((i, j) for j, poly in enumerate(data.a) for i in acting([poly], j))
        if not (image := data.partials[i](data.a[j])).is_zero
    ]
    return ValidationReport(tuple(violations))


def generator_label(alpha: tuple[int, ...]) -> str:
    """X part then Y part of a degree, e.g. ``X1^2*Y2``; empty for zero."""
    xs = []
    ys = []
    for i, x in enumerate(alpha, start=1):
        if x > 0:
            xs.append("X%d" % i if x == 1 else "X%d^%d" % (i, x))
        elif x < 0:
            ys.append("Y%d" % i if x == -1 else "Y%d^%d" % (i, -x))
    return "*".join(xs + ys)


def render_element(u: GWPAElement) -> str:
    """Canonical text form, graded parts in ascending degree order."""
    variables = u.algebra.base_ring.variables
    pieces: list[tuple[bool, str]] = []  # (negative, body)
    for alpha in u.support():
        poly = u._terms[alpha]
        label = generator_label(alpha)
        if not label:
            for exps, coeff in poly.sorted_terms():
                pieces.append((coeff < 0, term_string(variables, exps, coeff)))
            continue
        items = poly.sorted_terms()
        if len(items) == 1:
            exps, coeff = items[0]
            head = term_string(variables, exps, coeff)
            pieces.append((coeff < 0, label if head == "1" else "%s*%s" % (head, label)))
        else:
            pieces.append((False, "(%s)*%s" % (poly, label)))
    return join_signed(pieces)


# -- bracket core -------------------------------------------------------------

def _image_rows(A: GWPAData, element: GWPAElement) -> dict:
    """The images of the coefficients of ``element`` under the derivation
    family ``A.partials + A.base.hamiltonians``: per degree alpha, a list
    whose i-th entry is p_i(d) for the coefficient d and, when the base
    bracket is nonzero, whose (rank + k)-th entry is {d, x_k}; None until a
    bracket first needs it.  The map lives on the element, so every later
    bracket reuses it; it is not part of ``==`` or hashing."""
    rows = getattr(element, "_images", None)
    if rows is None:
        width = A.rank + (A.base_ring.nvars if A.base.entries else 0)
        zeros, unknown = [A.base_ring.zero()] * width, [None] * width
        rows = element._images = {
            alpha: (zeros if d.is_constant else unknown).copy()
            for alpha, d in element._terms.items()
        }
    return rows


def _bracket_pairs(A: GWPAData, u: GWPAElement, v: GWPAElement) -> dict:
    """The bracket {u, v} as a term map: the bilinear sum over basis term
    pairs of the closed form of {d v_alpha, e v_beta}.

    Both slots are derivations over the factor decomposition, which collapses
    to base-ring data: with P the product of overlap powers a_j^{m_j} and

        Q = sum over opposite-sign coordinates of |alpha_i| beta_i p_i(a_i) P / a_i,

    the pair contributes

        ({d, e} - d.E_alpha(e) + e.E_beta(d)) P + d e Q

    carried by v_{alpha+beta}, where E_alpha = sum alpha_i p_i.  The base
    bracket is {d, e} = sum_k {d, x_k} de/dx_k.  Each image p_i(d) is taken
    once per operand term, when a partner term first has a nonzero i-th
    coordinate, and each Hamiltonian image {d, x_k} when a partner term
    first uses x_k; both are kept (:func:`_image_rows`).  The first bracket
    is then one :func:`_combination` of the terms of d and e times those
    images; a pair with none of them and no overlap brackets to zero and is
    skipped.  P and Q depend only on the overlap pattern, so the algebra
    keeps them (:meth:`GWPAData.overlap_factors`).
    """
    ring, partials, base = A.base_ring, A.partials, A.base
    zero = ring.zero()
    fields = ()  # (row slot, field shift, unit key, x_k) per moving Hamiltonian column
    if base.entries:
        fields = [
            (A.rank + k, ring._shifts[k], ring.units[k], ring.var(name))
            for k, (name, H) in enumerate(zip(ring.variables, base.hamiltonians))
            if H.moved
        ]
    rows_u, rows_v = _image_rows(A, u), _image_rows(A, v)
    out: dict = {}
    try:
        for alpha, d in u._terms.items():
            d_row, d_den = rows_u[alpha], d._den
            for beta, e in v._terms.items():
                e_row, e_den = rows_v[beta], e._den
                # {d, e} - d E_alpha(e) + e E_beta(d), over d_den * e_den
                parts = []
                for slot, shift, unit, x in fields:
                    image = d_row[slot]
                    if image is None:
                        if not any((key >> shift) & _MASK for key in e._terms):
                            continue
                        image = d_row[slot] = base.bracket(d, x)
                    if image._terms:
                        parts.extend(
                            (c * n * d_den, key - unit, image)
                            for key, c in e._terms.items()
                            if (n := (key >> shift) & _MASK)
                        )
                overlaps = []
                for i, p in enumerate(alpha):
                    q = beta[i]
                    if p:
                        image = e_row[i]
                        if image is None:
                            image = e_row[i] = partials[i](e)
                        if image._terms:
                            parts.extend((-p * e_den * c, key, image) for key, c in d._terms.items())
                    if q:
                        image = d_row[i]
                        if image is None:
                            image = d_row[i] = partials[i](d)
                        if image._terms:
                            parts.extend((q * d_den * c, key, image) for key, c in e._terms.items())
                        if p and (p > 0) != (q > 0):
                            overlaps.append((i, min(abs(p), abs(q)), abs(p) * q))
                if not parts and not overlaps:
                    continue  # the pair brackets to zero
                total = _combination(ring, parts, d_den * e_den) if parts else zero
                if overlaps:
                    product, correction = A.overlap_factors(tuple(overlaps))
                    total = total * product
                    if correction._terms:
                        total = total + d * e * correction
                _accumulate(out, tuple(map(add, alpha, beta)), total)
    except GwpaError:
        if fields:  # name the degree of {d, e} when it alone passes the limit
            base.bracket(d, e)
        raise
    return out


def gwpa_mul(u: GWPAElement, v: GWPAElement) -> GWPAElement:
    """Product in graded normal form."""
    return u * v


def gwpa_bracket(u: GWPAElement, v: GWPAElement) -> GWPAElement:
    """Poisson bracket of two elements."""
    return u.bracket(v)


# -- constructions -------------------------------------------------------------


@dataclass(frozen=True)
class OreRealization:
    """Result of :func:`from_ore_data`: the algebra plus the names of the
    adjoined central variables (a_i equals the i-th of these)."""

    algebra: GWPAData
    new_vars: tuple[str, ...]


def from_ore_data(
    D: BasePoissonAlgebra,
    partials: Sequence[BaseDerivation],
    alphas: Sequence[Polynomial],
) -> OreRealization:
    """Realize D[X, Y] with {Y_i, X_i} = alpha_i as a rank-n algebra.

    The input is GWPA defining data over D with a_i = alpha_i, and is
    validated as such: each derivation must be a Poisson derivation, the
    derivations must commute, each alpha_i must be Poisson central and the
    other derivations must annihilate it.  Bad input raises
    :class:`ValidationFailure` listing every violated condition.  The base
    is then enlarged by fresh central variables H_1..H_n (a trailing ``_``
    avoids taken names), the i-th parameter is H_i, and the i-th derivation
    extends the given one by sending H_i to alpha_i and the other new
    variables to zero.  The generator relations are asserted after
    construction.
    """
    given = GWPAData.checked(D, alphas, partials)
    ring = D.ring
    new_names = []
    taken = set(ring.variables)
    for i in range(1, given.rank + 1):
        name = "H%d" % i
        while name in taken:
            name += "_"
        new_names.append(name)
        taken.add(name)
    big_ring = ring.extended(new_names)
    new_partials = []
    for i, der in enumerate(given.partials):
        moved = der.embedded(big_ring).moved + ((ring.nvars + i, given.a[i].embed(big_ring)),)
        new_partials.append(object.__new__(BaseDerivation)._fill(big_ring, moved))
    a = tuple(big_ring.var(name) for name in new_names)
    data = GWPAData.checked(_block_base(big_ring, [(D, {})]), a, new_partials)

    # The defining relations must reproduce the requested brackets.
    for i in range(1, given.rank + 1):
        lhs = data.Y(i).bracket(data.X(i))
        rhs = data.scalar(given.a[i - 1].embed(big_ring))
        if lhs != rhs:
            raise GwpaError("construction failed to reproduce {Y_%d, X_%d}" % (i, i))
    return OreRealization(data, tuple(new_names))


def _block_base(
    ring: PolyRing, blocks: Sequence[tuple[BasePoissonAlgebra, Mapping[str, str]]]
) -> BasePoissonAlgebra:
    """The base over ``ring`` whose bracket matrix is block diagonal: each
    (base, rename) in turn fills the next block, its variables renamed into
    ``ring``, and variables past the last block are central."""
    entries = []
    offset = 0
    for base, rename in blocks:
        entries += [(offset + j, offset + k, e.embed(ring, rename)) for j, k, e in base.entries]
        offset += base.ring.nvars
    return object.__new__(BasePoissonAlgebra)._fill(ring, tuple(entries))


@dataclass(frozen=True)
class TensorProduct:
    """Result of :func:`tensor_product`: the combined algebra and, per
    factor, the variable renaming that was applied to keep names disjoint."""

    algebra: GWPAData
    renamings: tuple[dict, ...]


def tensor_product(factors: Sequence[GWPAData]) -> TensorProduct:
    """Tensor product over the rationals.

    Base rings are concatenated; colliding variable names get a positional
    suffix (factor number).  Ranks add, parameters and derivations embed
    with zero extension.
    """
    factors = tuple(factors)
    if not factors:
        raise GwpaError("tensor product needs at least one factor")
    renamings: list[dict] = []
    all_names: list[str] = []
    taken: set[str] = set()
    for s, factor in enumerate(factors, start=1):
        rename = {}
        for name in factor.base_ring.variables:
            fresh = name
            while fresh in taken:
                fresh = "%s_%d" % (fresh, s)
            if fresh != name:
                rename[name] = fresh
            taken.add(fresh)
            all_names.append(fresh)
        renamings.append(rename)
    big_ring = PolyRing(all_names)
    big_base = _block_base(
        big_ring, [(factor.base, rename) for factor, rename in zip(factors, renamings)]
    )
    a = []
    partials = []
    for factor, rename in zip(factors, renamings):
        for poly in factor.a:
            a.append(poly.embed(big_ring, rename))
        for der in factor.partials:
            partials.append(der.embedded(big_ring, rename))
    data = GWPAData.checked(big_base, tuple(a), tuple(partials))
    return TensorProduct(data, tuple(renamings))


def apply_sI(
    A: GWPAData, I: Iterable[int], u: GWPAElement | None = None
) -> tuple[GWPAData, GWPAElement | None]:
    """The involution swapping X_i with Y_i for i in I.

    Returns the target algebra, which negates the selected derivations, and
    the image of ``u`` there, whose degrees have the selected coordinates
    negated.  Base coefficients are fixed.
    """
    indices = sorted(set(_integers(tuple(I), "indices %r must be integers")))
    for i in indices:
        if not 1 <= i <= A.rank:
            raise GwpaError("index %d out of range 1..%d" % (i, A.rank))
    flip = [i - 1 for i in indices]
    partials = list(A.partials)
    for i in flip:
        partials[i] = partials[i].negated()
    target = GWPAData(A.base, A.a, tuple(partials))
    if u is None:
        return target, None
    if u.algebra != A:
        raise AlgebraMismatchError("element does not belong to the source algebra")
    terms = {}
    for alpha, poly in u.items():
        moved = list(alpha)
        for i in flip:
            moved[i] = -moved[i]
        terms[tuple(moved)] = poly
    return target, GWPAElement(target, terms)


def torus_apply(u: GWPAElement, lam: Sequence) -> GWPAElement:
    """Rescale the graded component of degree alpha by prod lam_i^alpha_i.

    The entries must be nonzero rationals; negative entries are allowed.
    This is a Poisson automorphism for any such lam.
    """
    A = u.algebra
    lam = [normalize_coeff(x) for x in lam]
    if len(lam) != A.rank:
        raise GwpaError("need %d scale factors" % A.rank)
    if any(x == 0 for x in lam):
        raise GwpaError("scale factors must be nonzero")
    terms = {}
    for alpha, poly in u.items():
        for x, l in zip(alpha, lam):  # no negative powers: int ** -1 is a float
            poly = poly * l**x if x >= 0 else poly / l**-x
        terms[alpha] = poly
    return GWPAElement(A, terms)
