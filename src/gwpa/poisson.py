"""Poisson structures and derivations on rational polynomial rings.

A base Poisson algebra is a polynomial ring together with an antisymmetric
bracket matrix on its generators.  The bracket extends to arbitrary
polynomials as a biderivation.  Because the Jacobiator of an antisymmetric
biderivation is a derivation in each argument, checking the Jacobi identity
on generator triples decides it globally; construction fails fast when the
check fails.  The Hamiltonian derivations {-, x_k} are the matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Mapping, Sequence

from .errors import BracketMatrixError, GwpaError, JacobiViolationError
from .poly import Polynomial, PolyRing, _combination, _partial_terms


@dataclass(frozen=True)
class JacobiReport:
    """Outcome of a Jacobi check on a candidate bracket matrix.

    ``failing_triple`` holds one-based generator indices of the first
    violation in lexicographic order, with the offending Jacobiator; the
    identity holds when there is none.
    """

    failing_triple: tuple[int, int, int] | None = None
    jacobiator: Polynomial | None = None

    @property
    def holds(self) -> bool:
        return self.failing_triple is None


def _as_matrix(ring: PolyRing, matrix):
    """The checked matrix as a tuple of rows, and its nonzero entries as
    (j, k, {x_j, x_k}), row by row."""
    n = ring.nvars
    rows = tuple(tuple(row) for row in matrix)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise BracketMatrixError(
            "bracket matrix must be %d x %d for ring %r" % (n, n, ring)
        )
    entries = []
    for j, row in enumerate(rows):
        for k, entry in enumerate(row):
            if not isinstance(entry, Polynomial) or entry.ring != ring:
                raise BracketMatrixError(
                    "bracket matrix entries must be polynomials over %r" % (ring,)
                )
            if not entry.is_zero:
                entries.append((j, k, entry))
    for j in range(n):
        if not rows[j][j].is_zero:
            raise BracketMatrixError(
                "bracket matrix diagonal entry %d is nonzero: %s" % (j + 1, rows[j][j])
            )
        for k in range(j + 1, n):
            if rows[j][k] != -rows[k][j]:
                raise BracketMatrixError(
                    "bracket matrix is not antisymmetric at (%d, %d)" % (j + 1, k + 1)
                )
    return rows, tuple(entries)


def _biderivation_bracket(ring, entries, f, g):
    """{f, g}: the sum of df/dx_j dg/dx_k {x_j, x_k} over the nonzero
    ``entries`` of the bracket matrix, as one :func:`_combination` over the
    term pairs of each df/dx_j and dg/dx_k, weighted by the entry."""
    if not entries or f.is_constant or g.is_constant:
        return ring.zero()
    partials_f = {j: _partial_terms(f, j) for j in {j for j, _, _ in entries}}
    partials_g = {k: _partial_terms(g, k) for k in {k for _, k, _ in entries}}
    parts = [
        (c1 * c2, k1 + k2, entry)
        for j, k, entry in entries
        for k1, c1 in partials_f[j]
        for k2, c2 in partials_g[k]
    ]
    return _combination(ring, parts, f._den * g._den)


def jacobi_check(ring: PolyRing, matrix) -> JacobiReport:
    """Check the Jacobi identity for a candidate bracket matrix.

    The matrix must already be antisymmetric with zero diagonal.  Returns
    the first failing generator triple, if any.
    """
    rows, entries = _as_matrix(ring, matrix)
    if not entries:
        return JacobiReport()
    gens = ring.gens()
    n = ring.nvars
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = (
                    _biderivation_bracket(ring, entries, gens[i], rows[j][k])
                    + _biderivation_bracket(ring, entries, gens[j], rows[k][i])
                    + _biderivation_bracket(ring, entries, gens[k], rows[i][j])
                )
                if not jac.is_zero:
                    return JacobiReport((i + 1, j + 1, k + 1), jac)
    return JacobiReport()


@dataclass(frozen=True, repr=False)
class BasePoissonAlgebra:
    """Polynomial ring with a validated Poisson bracket on its generators.

    The constructor rejects matrices that are not antisymmetric or fail the
    Jacobi identity, so every live instance is a genuine Poisson algebra.
    ``hamiltonians`` is cached on first use, outside ``==`` and hashing.
    """

    ring: PolyRing
    matrix: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        rows, entries = _as_matrix(self.ring, self.matrix)
        report = jacobi_check(self.ring, rows)
        if not report.holds:
            raise JacobiViolationError(report.failing_triple, report.jacobiator)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def trivial(cls, ring: PolyRing) -> "BasePoissonAlgebra":
        zero = ring.zero()
        n = ring.nvars
        return cls(ring, tuple(tuple(zero for _ in range(n)) for _ in range(n)))

    @property
    def is_trivial(self) -> bool:
        return not self._entries

    @cached_property
    def hamiltonians(self) -> tuple[BaseDerivation, ...]:
        """{-, x_k} for each k: it sends x_j to {x_j, x_k}, matrix column k."""
        return tuple(BaseDerivation(self.ring, col) for col in zip(*self.matrix))

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Poisson bracket of two polynomials."""
        return _biderivation_bracket(self.ring, self._entries, f, g)

    def __repr__(self):
        kind = "trivial" if self.is_trivial else "nontrivial"
        return "BasePoissonAlgebra(%r, %s bracket)" % (self.ring, kind)


def _chain_rule(ring: PolyRing, images, key: int) -> Polynomial:
    """The image of the packed monomial ``key`` under the derivation sending
    the i-th variable to ``images[i]``: the sum over variables v of
    e_v x^(key - unit_v) D(x_v)."""
    parts = [
        (e, key - unit, image)
        for e, unit, image in zip(ring.unpack(key), ring.units, images)
        if e and not image.is_zero
    ]
    return _combination(ring, parts)


@dataclass(frozen=True)
class BaseDerivation:
    """A derivation of a polynomial ring, stored by its generator images.

    Application uses the chain rule, so the map is determined by and agrees
    with its images on generators.  The image of each monomial is memoized
    per instance; the memo is not a field, so it takes no part in ``==``
    or hashing.
    """

    ring: PolyRing
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        memo = cache(partial(_chain_rule, self.ring, self.images))
        object.__setattr__(self, "_image_of", memo)

    @classmethod
    def from_images(
        cls, ring: PolyRing, images: Mapping[str, Polynomial]
    ) -> "BaseDerivation":
        """Build from a name-to-image map; omitted variables map to zero."""
        for name in images:
            ring.index(name)
        filled = tuple(
            images.get(name, ring.zero()) for name in ring.variables
        )
        for img in filled:
            if img.ring != ring:
                raise GwpaError("derivation image lives in a different ring")
        return cls(ring, filled)

    @classmethod
    def partial(cls, ring: PolyRing, name: str) -> "BaseDerivation":
        """The coordinate derivation d/d(name)."""
        return cls.from_images(ring, {name: ring.one()})

    @classmethod
    def zero(cls, ring: PolyRing) -> "BaseDerivation":
        return cls(ring, tuple(ring.zero() for _ in ring.variables))

    def image_of(self, name: str) -> Polynomial:
        return self.images[self.ring.index(name)]

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ring is not self.ring and f.ring != self.ring:
            raise GwpaError("derivation applied to polynomial over a different ring")
        return f.map_monomials(self._image_of)

    def negated(self) -> "BaseDerivation":
        return BaseDerivation(self.ring, tuple(-img for img in self.images))

    def scaled(self, factor) -> "BaseDerivation":
        return BaseDerivation(self.ring, tuple(img * factor for img in self.images))

    def embedded(self, target: PolyRing, rename=None) -> "BaseDerivation":
        """Zero-extend onto a larger ring, optionally renaming variables."""
        rename = dict(rename or {})
        images = {}
        for name, image in zip(self.ring.variables, self.images):
            images[rename.get(name, name)] = image.embed(target, rename)
        return BaseDerivation.from_images(target, images)

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images)

    def __repr__(self):
        parts = [
            "%s -> %s" % (name, img)
            for name, img in zip(self.ring.variables, self.images)
            if not img.is_zero
        ]
        return "BaseDerivation(%s)" % ("; ".join(parts) or "0")


def is_poisson_derivation(D: BasePoissonAlgebra, der: BaseDerivation) -> bool:
    """Whether the derivation respects the bracket.

    The defect d{a,b} - {da,b} - {a,db} is a biderivation in (a, b), so
    vanishing on generator pairs decides the property.  There the brackets
    are Hamiltonian images: {d x_j, x_k} = H_k(d x_j), {x_j, d x_k} = -H_j(d x_k).
    """
    if der.ring != D.ring:
        raise GwpaError("derivation and Poisson algebra live over different rings")
    if D.is_trivial:  # every term of the defect is a bracket
        return True
    H, images = D.hamiltonians, der.images
    n = D.ring.nvars
    for j in range(n):
        for k in range(j + 1, n):
            if der(D.matrix[j][k]) != H[k](images[j]) - H[j](images[k]):
                return False
    return True


def derivations_commute(ders: Sequence[BaseDerivation]) -> bool:
    """Whether all pairs commute; a commutator of derivations is again a
    derivation, so generator images decide it."""
    for i in range(len(ders)):
        for j in range(i + 1, len(ders)):
            a, b = ders[i], ders[j]
            if a.ring != b.ring:
                raise GwpaError("derivations live over different rings")
            for img_b, img_a in zip(b.images, a.images):
                if img_a.is_constant and img_b.is_constant:
                    continue  # each term of the commutator kills a constant
                if a(img_b) != b(img_a):
                    return False
    return True
