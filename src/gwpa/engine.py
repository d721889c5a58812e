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
elements is the bilinear sum of a closed form for each pair of basis terms
(:func:`_term_bracket`).

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
from .poly import NEG_INF, Polynomial, PolyRing, term_string


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
    ok: bool
    violations: tuple[Violation, ...] = ()


# -- graded normal form --------------------------------------------------------


def _accumulate(out: dict, key, poly: Polynomial) -> None:
    """Add ``poly`` into ``out[key]``, dropping the entry when it cancels."""
    acc = out.get(key)
    acc = poly if acc is None else acc + poly
    if acc.is_zero:
        out.pop(key, None)
    else:
        out[key] = acc


class GradedElement:
    """Element in graded normal form: a map from Z^n degrees alpha to nonzero
    base polynomial coefficients d, read as the sum of the terms d v_alpha.

    Subclasses supply the product.  Ints, Fractions and base polynomials act
    as scalars in every operation; a polynomial over another ring raises
    :class:`AmbientMismatchError`.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: "GradedAlgebra", terms: Mapping):
        ring = algebra.base_ring
        rank = algebra.rank
        clean: dict[tuple[int, ...], Polynomial] = {}
        for alpha, poly in dict(terms).items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != rank:
                raise GwpaError("degree tuple %r does not match rank %d" % (alpha, rank))
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
        return sorted(self._terms, key=lambda a: (sum(map(abs, a)), tuple(-x for x in a)))

    def coefficient(self, alpha: Sequence[int]) -> Polynomial:
        return self._terms.get(tuple(alpha), self.algebra.base_ring.zero())

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

    def __rmul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int):
        """Nonnegative integer powers, by repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise GwpaError("element powers must be nonnegative integers")
        result = self.algebra.one()
        square = self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    # -- comparison and rendering -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self.algebra == other.algebra and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


_GENERATOR_NAME = re.compile(r"[XY][0-9]+")


class GradedAlgebra:
    """Element constructors shared by the Poisson and quantized algebras.

    A subclass provides ``rank``, ``base_ring``, the ``element_type`` it
    builds, and the two product hooks read by :func:`_graded_mul`:
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
    def zero_alpha(self) -> tuple[int, ...]:
        return (0,) * self.rank

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
            _accumulate(out, tuple(p + q for p, q in zip(alpha, beta)), coeff)
    return out


# -- the Poisson algebra -------------------------------------------------------


class GWPAElement(GradedElement):
    """Element of a generalized Weyl Poisson algebra."""

    __slots__ = ()

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
        return GWPAElement(
            self.algebra, {a: p * factor for a, p in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.scaled(other)
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(_graded_mul(self.algebra, self._terms, other._terms))

    def bracket(self, other: "GWPAElement") -> "GWPAElement":
        """Poisson bracket, summed over pairs of basis terms."""
        operand = self._operand(other)
        if operand is NotImplemented:
            raise GwpaError("cannot take a bracket with %r" % (other,))
        return self._new(_bracket_pairs(self.algebra, self._terms, operand._terms))


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

    @classmethod
    def checked(cls, base, a, partials) -> "GWPAData":
        """Build and validate, raising :class:`ValidationFailure` on bad data."""
        data = cls(base, tuple(a), tuple(partials))
        report = validate_gwpa(data)
        if not report.ok:
            raise ValidationFailure(report)
        return data

    @property
    def rank(self) -> int:
        return len(self.a)

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
    n = data.rank
    for i, der in enumerate(data.partials):
        if not is_poisson_derivation(base, der):
            violations.append(
                Violation(
                    "poisson-derivation",
                    (i + 1,),
                    "derivation %d does not respect the base bracket" % (i + 1),
                )
            )
    for i in range(n):
        for j in range(i + 1, n):
            a, b = data.partials[i], data.partials[j]
            if any(a(bi) != b(ai) for bi, ai in zip(b.images, a.images)):
                violations.append(
                    Violation(
                        "commuting-derivations",
                        (i + 1, j + 1),
                        "derivations %d and %d do not commute" % (i + 1, j + 1),
                    )
                )
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
    for i, der in enumerate(data.partials):
        for j, poly in enumerate(data.a):
            if i != j:
                image = der(poly)
                if not image.is_zero:
                    violations.append(
                        Violation(
                            "cross-constant",
                            (i + 1, j + 1),
                            "derivation %d must annihilate parameter %d, got %s"
                            % (i + 1, j + 1, image),
                        )
                    )
    ok = not violations
    return ValidationReport(ok, tuple(violations))


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
    if u.is_zero:
        return "0"
    variables = u.algebra.base_ring.variables
    pieces: list[tuple[int, str]] = []  # (sign, body) with sign in {+1, -1}
    for alpha in u.support():
        poly = u._terms[alpha]
        label = generator_label(alpha)
        if not label:
            for exps, coeff in poly.sorted_terms():
                body = term_string(variables, exps, coeff)
                pieces.append((-1 if coeff < 0 else 1, body))
            continue
        items = poly.sorted_terms()
        if len(items) == 1:
            exps, coeff = items[0]
            if any(exps):
                body = "%s*%s" % (term_string(variables, exps, coeff), label)
            else:
                mag = -coeff if coeff < 0 else coeff
                body = label if mag == 1 else "%s*%s" % (mag, label)
            pieces.append((-1 if coeff < 0 else 1, body))
        else:
            pieces.append((1, "(%s)*%s" % (poly, label)))
    out = []
    for k, (sign, body) in enumerate(pieces):
        if k == 0:
            out.append("-" + body if sign < 0 else body)
        else:
            out.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(out)


# -- bracket core -------------------------------------------------------------

def _term_bracket(A: GWPAData, alpha, d: Polynomial, beta, e: Polynomial):
    """Coefficient of the bracket of one basis term pair, {d v_alpha, e v_beta}.

    Both slots are derivations over the factor decomposition, which collapses
    to base-ring data: with P the product of overlap powers a_j^{m_j},

        ({d, e} - d.E_alpha(e) + e.E_beta(d)) P
            + d e sum over opposite-sign coordinates of |alpha_i| beta_i
              p_i(a_i) P / a_i

    carried by v_{alpha+beta}, where E_alpha = sum alpha_i p_i.
    """
    base = d.ring.zero() if A.base.is_trivial else A.base.bracket(d, e)
    drift = _drift(A, alpha, e)
    if drift is not None:
        base = base - d * drift
    drift = _drift(A, beta, d)
    if drift is not None:
        base = base + e * drift
    overlap = None
    corrections = []
    for i in range(A.rank):
        p, q = alpha[i], beta[i]
        if p and q and (p > 0) != (q > 0):
            m = min(abs(p), abs(q))
            scale = A.p_of_a(i) * (abs(p) * q)
            if not scale.is_zero:
                corrections.append((i, m, scale))
            power = A.a_power(i, m)
            overlap = power if overlap is None else overlap * power
    total = base if overlap is None else base * overlap
    if corrections:
        de = d * e
        if not de.is_zero:
            for i, m, scale in corrections:
                piece = de * scale * A.a_power(i, m - 1)
                for j in range(A.rank):
                    if j != i:
                        pj, qj = alpha[j], beta[j]
                        if pj and qj and (pj > 0) != (qj > 0):
                            piece = piece * A.a_power(j, min(abs(pj), abs(qj)))
                total = total + piece
    return total


def _drift(A: GWPAData, weights, f: Polynomial) -> Polynomial | None:
    """E_weights(f) = sum_i weights_i p_i(f), or None when it vanishes."""
    if f.is_constant:
        return None
    drift = None
    for i, k in enumerate(weights):
        if k:
            image = A.partials[i](f)
            if k != 1:
                image = image * k
            drift = image if drift is None else drift + image
    return None if drift is None or drift.is_zero else drift


def _bracket_pairs(A: GWPAData, t1, t2) -> dict:
    """Bilinear sum of closed-form term-pair brackets."""
    out: dict = {}
    for alpha, d in t1.items():
        for beta, e in t2.items():
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            _accumulate(out, gamma, _term_bracket(A, alpha, d, beta, e))
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

    The base is enlarged by fresh central variables H_1..H_n, the i-th
    parameter is H_i, and the i-th derivation extends the given one by
    sending H_i to alpha_i and the other new variables to zero.  Requires
    each alpha_i Poisson central in D and annihilated by the other
    derivations.  The generator relations are asserted after construction.
    """
    partials = tuple(partials)
    alphas = tuple(alphas)
    n = len(alphas)
    if n == 0 or len(partials) != n:
        raise GwpaError("need equally many derivations and parameters, at least one")
    ring = D.ring
    for der in partials:
        if der.ring != ring:
            raise GwpaError("derivation lives over a different ring")
        if not is_poisson_derivation(D, der):
            raise GwpaError("input derivation does not respect the base bracket")
    if not derivations_commute(partials):
        raise GwpaError("input derivations do not commute")
    gens = ring.gens()
    for idx, alpha in enumerate(alphas):
        if alpha.ring != ring:
            raise GwpaError("parameter lives over a different ring")
        for g, name in zip(gens, ring.variables):
            if not D.bracket(alpha, g).is_zero:
                raise GwpaError(
                    "parameter %d is not Poisson central: {alpha, %s} != 0"
                    % (idx + 1, name)
                )
    for i, der in enumerate(partials):
        for j, alpha in enumerate(alphas):
            if i != j and not der(alpha).is_zero:
                raise GwpaError(
                    "derivation %d must annihilate parameter %d" % (i + 1, j + 1)
                )

    new_names = []
    taken = set(ring.variables)
    for i in range(1, n + 1):
        name = "H%d" % i
        while name in taken:
            name += "_"
        new_names.append(name)
        taken.add(name)
    big_ring = ring.extended(new_names)
    zero = big_ring.zero()
    old_n = ring.nvars
    matrix = []
    for j in range(big_ring.nvars):
        row = []
        for k in range(big_ring.nvars):
            if j < old_n and k < old_n:
                row.append(D.matrix[j][k].embed(big_ring))
            else:
                row.append(zero)
        matrix.append(tuple(row))
    big_base = BasePoissonAlgebra(big_ring, tuple(matrix))

    a = tuple(big_ring.var(name) for name in new_names)
    new_partials = []
    for i, der in enumerate(partials):
        images = {
            name: img.embed(big_ring)
            for name, img in zip(ring.variables, der.images)
        }
        images[new_names[i]] = alphas[i].embed(big_ring)
        new_partials.append(BaseDerivation.from_images(big_ring, images))

    data = GWPAData.checked(big_base, a, tuple(new_partials))

    # The defining relations must reproduce the requested brackets.
    for i in range(1, n + 1):
        lhs = data.Y(i).bracket(data.X(i))
        rhs = data.scalar(alphas[i - 1].embed(big_ring))
        if lhs != rhs:
            raise GwpaError("construction failed to reproduce {Y_%d, X_%d}" % (i, i))
    return OreRealization(data, tuple(new_names))


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
    zero = big_ring.zero()
    matrix = [[zero] * big_ring.nvars for _ in range(big_ring.nvars)]
    offset = 0
    for factor, rename in zip(factors, renamings):
        n = factor.base_ring.nvars
        for j in range(n):
            for k in range(n):
                entry = factor.base.matrix[j][k]
                if not entry.is_zero:
                    matrix[offset + j][offset + k] = entry.embed(big_ring, rename)
        offset += n
    big_base = BasePoissonAlgebra(big_ring, tuple(tuple(row) for row in matrix))
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
    indices = sorted(set(int(i) for i in I))
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
    lam = [Fraction(x) for x in lam]
    if len(lam) != A.rank:
        raise GwpaError("need %d scale factors" % A.rank)
    if any(x == 0 for x in lam):
        raise GwpaError("scale factors must be nonzero")
    terms = {}
    for alpha, poly in u.items():
        factor = Fraction(1)
        for x, l in zip(alpha, lam):
            factor *= l**x
        terms[alpha] = poly * factor
    return GWPAElement(A, terms)
