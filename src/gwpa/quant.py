"""Filtered quantizations and the graded correspondence check.

A generalized Weyl algebra over the polynomial base ring is assembled from
commuting affine substitutions s_1..s_n and central parameters a_1..a_n.
Multiplication twists coefficients past the generators, X_i d = s_i(d) X_i,
and opposite generators contract through shifted parameters.  Elements share
the graded normal form and the product loop of :mod:`gwpa.engine`; these two
rules enter it as :meth:`GWAData.apply_sigma_alpha` and
:meth:`GWAData.contraction_factor`.  Variable weights induce a filtration
once every substitution moves each variable by terms of strictly smaller
weight; the associated graded object is then a Poisson algebra of the kind
built in :mod:`gwpa.engine`, with bracket read off from the leading
discrepancy of the substitutions.  The correspondence check compares graded
commutators against that predicted bracket on supplied element pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial

from .engine import (
    GradedAlgebra,
    GradedElement,
    GWPAData,
    GWPAElement,
    _accumulate,
)
from .errors import AlgebraMismatchError, AmbientMismatchError, GwpaError
from .linalg import rref
from .poisson import BaseDerivation, BasePoissonAlgebra
from .poly import NEG_INF, Polynomial, PolyRing, _integers, monomial_image, power


@dataclass(frozen=True, repr=False)
class AffineSubstitution:
    """A ring endomorphism sending each variable to an affine polynomial.

    The image of each monomial is memoized per instance; the memo takes no
    part in ``==`` or hashing.
    """

    ring: PolyRing
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        ring = self.ring
        images = tuple(self.images)
        if len(images) != ring.nvars:
            raise GwpaError(
                "expected %d images, got %d" % (ring.nvars, len(images))
            )
        for name, image in zip(ring.variables, images):
            if image.ring != ring:
                raise AmbientMismatchError(ring.variables, image.ring.variables)
            if image.total_degree > 1:
                raise GwpaError(
                    "image of %r is not affine: %s" % (name, image)
                )
        object.__setattr__(self, "images", images)
        memo = cache(partial(monomial_image, ring, images))
        object.__setattr__(self, "_image_of", memo)

    @classmethod
    def identity(cls, ring: PolyRing) -> "AffineSubstitution":
        return cls(ring, ring.gens())

    @classmethod
    def from_map(cls, ring: PolyRing, images: dict) -> "AffineSubstitution":
        """Build from a partial mapping; unnamed variables stay fixed."""
        full = []
        for name in ring.variables:
            image = images.get(name, ring.var(name))
            if not isinstance(image, Polynomial):
                image = ring.const(image)
            full.append(image)
        return cls(ring, full)

    def __call__(self, poly: Polynomial) -> Polynomial:
        if poly.ring is not self.ring and poly.ring != self.ring:
            raise AmbientMismatchError(self.ring.variables, poly.ring.variables)
        return poly.map_monomials(self._image_of)

    def compose(self, other: "AffineSubstitution") -> "AffineSubstitution":
        """The substitution applying ``other`` first, then this one."""
        if other.ring != self.ring:
            raise AmbientMismatchError(self.ring.variables, other.ring.variables)
        return AffineSubstitution(self.ring, tuple(self(img) for img in other.images))

    __mul__ = compose

    def __pow__(self, k: int) -> "AffineSubstitution":
        """The k-fold composite, by repeated squaring; a negative k composes
        the inverse."""
        if not isinstance(k, int):
            raise GwpaError("substitution powers must be integers")
        base = self if k >= 0 else self.inverse()
        return power(base, abs(k), AffineSubstitution.identity(self.ring))

    def inverse(self) -> "AffineSubstitution":
        """The inverse substitution; requires an invertible linear part.

        For x -> M x + b it is x -> M^-1 (x - b): row j of the reduced
        [M | I] holds row j of M^-1.
        """
        ring = self.ring
        n = ring.nvars
        augmented = [
            [image.partial(name).constant_value() for name in ring.variables]
            + [int(k == j) for k in range(n)]
            for j, image in enumerate(self.images)
        ]
        reduced, pivots = rref(augmented)
        if pivots != list(range(n)):
            raise GwpaError("substitution is not invertible")
        moved = [x - image.constant_value() for x, image in zip(ring.gens(), self.images)]
        images = [
            sum((x * c for x, c in zip(moved, row[n:]) if c), ring.zero())
            for row in reduced
        ]
        result = AffineSubstitution(ring, images)
        if self.compose(result) != AffineSubstitution.identity(ring):
            raise GwpaError("inverse substitution failed its check")
        return result

    def __repr__(self):
        parts = ", ".join(
            "%s -> %s" % (name, image)
            for name, image in zip(self.ring.variables, self.images)
        )
        return "AffineSubstitution(%s)" % parts


def _twice(degree) -> int | None:
    """Twice a filtration degree as an int; None unless the degree is a
    half-integer (NEG_INF is not), since then no term has it."""
    if isinstance(degree, Fraction):
        return 2 // degree.denominator * degree.numerator if degree.denominator <= 2 else None
    twice = 2 * degree
    return int(twice) if twice % 1 == 0 else None


class GWAElement(GradedElement):
    """An element with polynomial coefficients written to the left of v."""

    __slots__ = ()

    __mul__ = GradedElement.__mul__  # bench/tracer.py wraps the class's own entry

    def commutator(self, other: "GWAElement") -> "GWAElement":
        operand = self._operand(other)
        if operand is NotImplemented:
            raise GwpaError("cannot take a commutator with %r" % (other,))
        out = (self * operand)._terms  # a fresh map, owned here
        for alpha, poly in (operand * self)._terms.items():
            _accumulate(out, alpha, -poly)
        return self._new(out)

    @property
    def degree(self):
        """Filtration degree, an int or a half-integer Fraction; NEG_INF
        for the zero element."""
        if not self._terms:
            return NEG_INF
        twice = max(
            self.algebra.twice_term_degree(alpha, poly)
            for alpha, poly in self._terms.items()
        )
        return twice // 2 if twice % 2 == 0 else Fraction(twice, 2)

    def homogeneous_part(self, target) -> "GWAElement":
        """The slice of exact filtration degree ``target``."""
        A = self.algebra
        out = {}
        twice = _twice(target)
        if twice is None:
            return self._new(out)
        for alpha, poly in self._terms.items():
            rest = twice - A.alpha_weight(alpha)
            if rest < 0 or rest % 2:
                continue
            piece = poly.weighted_component(A.weights, rest // 2)
            if not piece.is_zero:
                out[alpha] = piece
        return self._new(out)

    def leading_part(self) -> "GWAElement":
        if not self._terms:
            return self
        return self.homogeneous_part(self.degree)


@dataclass(frozen=True)
class GWAData(GradedAlgebra):
    """Defining data of a generalized Weyl algebra with a weight filtration.

    ``weights`` assigns a positive weight to each base variable, ``degrees``
    records the weighted degree of each parameter, and ``nu`` is the uniform
    filtration drop: every substitution must move each variable by terms of
    weighted degree at most weight minus ``nu``.
    """

    ring: PolyRing
    sigmas: tuple[AffineSubstitution, ...]
    a: tuple[Polynomial, ...]
    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    nu: int = 1

    element_type = GWAElement

    def __post_init__(self):
        ring, nu = self.ring, self.nu
        self._check_base_names(ring)
        sigmas = tuple(self.sigmas)
        a = tuple(self.a)
        weights = _integers(self.weights, "weights %r must be integers")
        degrees = _integers(self.degrees, "degrees %r must be integers")
        if not sigmas:
            raise GwpaError("rank must be at least one")
        if len(a) != len(sigmas) or len(degrees) != len(sigmas):
            raise GwpaError("substitutions, parameters and degrees must align")
        if len(weights) != ring.nvars:
            raise GwpaError("one weight per base variable is required")
        if any(w < 1 for w in weights):
            raise GwpaError("weights must be positive")
        if not isinstance(nu, int) or nu < 1:
            raise GwpaError("the filtration drop must be a positive integer")
        for i, sigma in enumerate(sigmas):
            if sigma.ring != ring:
                raise AmbientMismatchError(ring.variables, sigma.ring.variables)
            for j, other in enumerate(sigmas[:i]):
                for mine, theirs in zip(sigma.images, other.images):
                    if sigma(theirs) != other(mine):
                        raise GwpaError(
                            "substitutions %d and %d do not commute"
                            % (j + 1, i + 1)
                        )
        for i, poly in enumerate(a):
            if poly.ring != ring:
                raise AmbientMismatchError(ring.variables, poly.ring.variables)
            if poly.weighted_degree(weights) != degrees[i]:
                raise GwpaError(
                    "parameter %d has weighted degree %s, expected %d"
                    % (i + 1, poly.weighted_degree(weights), degrees[i])
                )
            for k, sigma in enumerate(sigmas):
                if k != i and sigma(poly) != poly:
                    raise GwpaError(
                        "substitution %d must fix parameter %d" % (k + 1, i + 1)
                    )
        for i, sigma in enumerate(sigmas):
            for j, name in enumerate(ring.variables):
                drop = sigma.images[j] - ring.var(name)
                if drop.weighted_degree(weights) > weights[j] - nu:
                    raise GwpaError(
                        "substitution %d moves %s by weighted degree %s, "
                        "exceeding %d"
                        % (i + 1, name, drop.weighted_degree(weights), weights[j] - nu)
                    )
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_alpha_maps", {})
        object.__setattr__(self, "_factors", {})
        object.__setattr__(self, "_alpha_weights", {})

    @property
    def base_ring(self) -> PolyRing:
        return self.ring

    # -- cached substitution machinery --------------------------------------

    def sigma_alpha(self, alpha) -> AffineSubstitution:
        """The composite of the sigma_i ** alpha_i, cached per alpha.

        A new alpha takes one step from a cached neighbour alpha - s e_i
        (s = +-1): the unit map sigma_i ** s composed with it.  Without one,
        each unit map is raised to |alpha_i| by repeated squaring.  The unit
        maps sigma_i and sigma_i^-1 are cached under +e_i and -e_i, so each
        inverse is taken once.
        """
        maps = self._alpha_maps
        value = maps.get(alpha)
        if value is None:
            value = maps[alpha] = self._build_sigma_alpha(alpha)
        return value

    def _build_sigma_alpha(self, alpha) -> AffineSubstitution:
        maps = self._alpha_maps
        for i, k in enumerate(alpha):
            if k:
                s = 1 if k > 0 else -1
                rest = alpha[:i] + (k - s,) + alpha[i + 1:]
                if not any(rest):
                    return self.sigmas[i] if s > 0 else self.sigmas[i].inverse()
                neighbour = maps.get(rest)
                if neighbour is not None:
                    return self.sigma_alpha(self._unit(i + 1, s)).compose(neighbour)
        value = AffineSubstitution.identity(self.ring)
        for i, k in enumerate(alpha):
            if k:
                unit = self.sigma_alpha(self._unit(i + 1, 1 if k > 0 else -1))
                value = value.compose(unit ** abs(k))
        return value

    def apply_sigma_alpha(self, alpha, poly: Polynomial) -> Polynomial:
        """Twist of a coefficient moved left past v_alpha: sigma_alpha(poly)."""
        if poly.is_constant or not any(alpha):
            return poly
        return self.sigma_alpha(alpha)(poly)

    def shifted_parameter(self, i: int, k: int) -> Polynomial:
        """sigma_i ** k applied to the parameter a_i."""
        if not k:
            return self.a[i]
        alpha = tuple(k if j == i else 0 for j in range(self.rank))
        return self.sigma_alpha(alpha)(self.a[i])

    def contraction_factor(self, i: int, p: int, q: int) -> Polynomial:
        """The coefficient produced in coordinate i when v_p meets v_q.

        With m = min(|p|, |q|) it is the product of the shifted parameters
        sigma_i ** k (a_i) over k = p - m + 1 .. p when p > 0, and over
        k = p + m down to p + 1 when p < 0; each factor is one step of
        sigma_i (or its inverse) from the previous one.
        """
        if p == 0 or q == 0 or (p > 0) == (q > 0):
            return self.ring.one()
        key = (i, p, q)
        value = self._factors.get(key)
        if value is None:
            m = min(abs(p), abs(q))
            s = 1 if p > 0 else -1
            first = p - m + 1 if p > 0 else p + m
            step = self.sigma_alpha(self._unit(i + 1, s))
            factor = value = self.shifted_parameter(i, first)
            for _ in range(m - 1):
                factor = step(factor)
                value = value * factor
            self._factors[key] = value
        return value

    def generators(self):
        gens = [self.scalar(self.ring.var(name)) for name in self.ring.variables]
        gens.extend(self.X(i) for i in range(1, self.rank + 1))
        gens.extend(self.Y(i) for i in range(1, self.rank + 1))
        return gens

    def alpha_weight(self, alpha) -> int:
        """Twice the filtration degree of v_alpha: sum d_i |alpha_i|."""
        weight = self._alpha_weights.get(alpha)
        if weight is None:
            weight = sum(d * abs(k) for d, k in zip(self.degrees, alpha))
            self._alpha_weights[alpha] = weight
        return weight

    def twice_term_degree(self, alpha, poly: Polynomial) -> int:
        """Twice the filtration degree of the nonzero term poly v_alpha."""
        return 2 * poly.weighted_degree(self.weights) + self.alpha_weight(alpha)

    @cached_property  # not a field, so equality and hashing ignore it
    def _predicted(self) -> GWPAData:
        """The algebra :func:`predicted_gwpa` returns, built once."""
        ring, weights, nu = self.ring, self.weights, self.nu
        abar = tuple(
            a.weighted_component(weights, d) for a, d in zip(self.a, self.degrees)
        )
        partials = []
        for sigma in self.sigmas:
            drops = [image - x for image, x in zip(sigma.images, ring.gens())]
            tops = [-drop.weighted_component(weights, w - nu) for drop, w in zip(drops, weights)]
            partials.append(BaseDerivation(ring, tops))
        base = BasePoissonAlgebra.trivial(ring)
        return GWPAData.checked(base, abar, tuple(partials))


# -- graded correspondence ---------------------------------------------------


def predicted_gwpa(A: GWAData) -> GWPAData:
    """The Poisson algebra carried by the associated graded object.

    Parameters keep their top weighted component and each derivation image
    is minus the leading part of the discrepancy between a substitution and
    the identity.  It is built and validated once per algebra; later calls
    return the same object, with its caches.
    """
    return A._predicted


def _graded_image(target: GWPAData, element: GWAElement, degree) -> GWPAElement:
    """The slice of ``element`` at ``degree``, read in the predicted algebra,
    whose base ring is the quantization's."""
    image = object.__new__(GWPAElement)
    image.algebra = target
    image._terms = element.homogeneous_part(degree)._terms
    return image


@dataclass(frozen=True)
class GrPairReport:
    """Outcome of the correspondence check on one pair of elements."""

    left: GWAElement
    right: GWAElement
    left_degree: int | Fraction
    right_degree: int | Fraction
    commutator: GWAElement
    commutator_degree: int | Fraction | float  # NEG_INF when it vanishes
    expected_degree: int | Fraction
    degree_drops: bool
    graded_bracket: GWPAElement
    predicted_bracket: GWPAElement
    matches: bool


@dataclass(frozen=True)
class GrReport:
    """The correspondence check on every pair, and whether all matched."""

    algebra: GWAData
    predicted: GWPAData
    pairs: tuple[GrPairReport, ...]

    @property
    def all_match(self) -> bool:
        return all(pair.matches for pair in self.pairs)


def gr_correspondence_check(A: GWAData, pairs) -> GrReport:
    """Compare graded commutators with the predicted Poisson bracket.

    For elements u, v of filtration degrees s and t the commutator must drop
    to degree s + t - nu, and its slice at that degree must equal the bracket
    of the leading parts inside the predicted Poisson algebra.
    """
    target = predicted_gwpa(A)
    leading: dict = {}  # id(u) -> (u, degree, image of the leading part)

    def leading_data(u):
        entry = leading.get(id(u))
        if entry is None:
            degree = u.degree
            entry = leading[id(u)] = (u, degree, _graded_image(target, u, degree))
        return entry[1], entry[2]

    results = []
    for u, v in pairs:
        if not isinstance(u, GWAElement) or not isinstance(v, GWAElement):
            raise GwpaError("correspondence pairs must be algebra elements")
        if (u.algebra is not A and u.algebra != A) or (
            v.algebra is not A and v.algebra != A
        ):
            raise AlgebraMismatchError("pair does not live in the given algebra")
        if u.is_zero or v.is_zero:
            raise GwpaError("correspondence pairs must be nonzero")
        s, left_bar = leading_data(u)
        t, right_bar = leading_data(v)
        commutator = u.commutator(v)
        commutator_degree = commutator.degree
        expected = s + t - A.nu
        drops = commutator_degree <= expected
        graded = _graded_image(target, commutator, expected)
        predicted_bracket = left_bar.bracket(right_bar)
        results.append(
            GrPairReport(
                left=u,
                right=v,
                left_degree=s,
                right_degree=t,
                commutator=commutator,
                commutator_degree=commutator_degree,
                expected_degree=expected,
                degree_drops=drops,
                graded_bracket=graded,
                predicted_bracket=predicted_bracket,
                matches=drops and graded == predicted_bracket,
            )
        )
    return GrReport(A, target, tuple(results))


# -- stock quantizations ------------------------------------------------------


def weyl_gwa(n: int = 1) -> GWAData:
    """The n-th Weyl algebra as a generalized Weyl algebra.

    Base K[H1..Hn] with a_i = H_i and substitutions H_i -> H_i - 1; the
    graded correspondence recovers the Poisson algebra of p2n(n).
    """
    if n < 1:
        raise GwpaError("rank must be at least one")
    ring = PolyRing(["H%d" % (i + 1) for i in range(n)])
    sigmas = []
    for i in range(n):
        name = ring.variables[i]
        sigmas.append(
            AffineSubstitution.from_map(ring, {name: ring.var(name) - 1})
        )
    a = tuple(ring.var(name) for name in ring.variables)
    weights = tuple(1 for _ in range(n))
    degrees = tuple(1 for _ in range(n))
    return GWAData(ring, sigmas, a, weights, degrees, nu=1)


def usl2_gwa() -> GWAData:
    """The enveloping algebra of sl2 as a rank one generalized Weyl algebra.

    Base K[C, H] with a = C - H(H + 1), substitution H -> H - 1 fixing C,
    weights 2 and 1.  The Casimir C = YX + H(H + 1) is central and the graded
    correspondence recovers the Poisson algebra with parameter C - H^2.
    """
    ring = PolyRing(["C", "H"])
    H = ring.var("H")
    C = ring.var("C")
    sigma = AffineSubstitution.from_map(ring, {"H": H - 1})
    a = (C - H * (H + 1),)
    return GWAData(ring, (sigma,), a, (2, 1), (2,), nu=1)
