"""Poisson structures and derivations on rational polynomial rings.

A base Poisson algebra is a polynomial ring together with an antisymmetric
bracket matrix on its generators.  The bracket extends to arbitrary
polynomials as a biderivation, evaluated through the Hamiltonian
derivations {-, x_k}, the matrix columns.  Because the Jacobiator of an
antisymmetric biderivation is a derivation in each argument, checking the
Jacobi identity on generator triples decides it globally; construction
fails fast when the check fails.  Brackets and derivations keep only their
nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Mapping, Sequence

from .errors import AmbientMismatchError, BracketMatrixError, GwpaError, JacobiViolationError
from .poly import _MASK, Polynomial, PolyRing, _combination, _partial_terms


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
    """The checked matrix's nonzero entries, as (j, k, {x_j, x_k}) row by
    row.  Only they can break antisymmetry, so the first fault in row order
    is found among them."""
    n = ring.nvars
    rows = tuple(tuple(row) for row in matrix)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise BracketMatrixError("bracket matrix must be %d x %d for ring %r" % (n, n, ring))
    if not all(isinstance(e, Polynomial) and e.ring == ring for row in rows for e in row):
        raise BracketMatrixError("bracket matrix entries must be polynomials over %r" % (ring,))
    entry = {(j, k): e for j, row in enumerate(rows) for k, e in enumerate(row) if e._terms}
    faults = [(min(pair), max(pair)) for pair, e in entry.items() if entry.get(pair[::-1]) != -e]
    if faults:
        j, k = min(faults)
        raise BracketMatrixError(
            "bracket matrix diagonal entry %d is nonzero: %s" % (j + 1, rows[j][j]) if j == k
            else "bracket matrix is not antisymmetric at (%d, %d)" % (j + 1, k + 1)
        )
    return tuple((j, k, e) for (j, k), e in entry.items())


def jacobi_check(ring: PolyRing, matrix) -> JacobiReport:
    """Check the Jacobi identity for a candidate antisymmetric bracket
    matrix with zero diagonal: the first failing generator triple, if any."""
    try:
        BasePoissonAlgebra(ring, matrix)
    except JacobiViolationError as exc:
        return JacobiReport(exc.triple, exc.jacobiator)
    return JacobiReport()


@dataclass(frozen=True, init=False, repr=False)
class BasePoissonAlgebra:
    """Polynomial ring with a validated Poisson bracket on its generators.

    The constructor rejects matrices that are not antisymmetric or fail the
    Jacobi identity, so every live instance is a genuine Poisson algebra.
    Only ``entries``, the nonzero (j, k, {x_j, x_k}) row by row, is read
    by the bracket and takes part in ``==`` and hashing; the dense
    ``matrix`` and ``hamiltonians`` are cached on first use.  Internal
    builds fill a bare instance from sparse data with ``_fill``.
    """

    ring: PolyRing
    entries: tuple[tuple[int, int, Polynomial], ...]

    def __init__(self, ring: PolyRing, matrix):
        self._fill(ring, _as_matrix(ring, matrix))

    def _fill(self, ring, entries):
        """Keep ``entries`` once the triples through a nonzero entry pass the
        Jacobi check, in lexicographic order; any other has a zero Jacobiator.
        The check reads :meth:`bracket`, so the entries are set first."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", entries)
        entry = {(j, k): value for j, k, value in entries}
        triples = {tuple(sorted((i, j, k))) for j, k, _ in entries for i in range(ring.nvars)}
        for i, j, k in sorted(t for t in triples if len(set(t)) == 3):
            jac = ring.zero()
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                if (b, c) in entry:
                    jac = jac + self.bracket(ring.var(ring.variables[a]), entry[b, c])
            if not jac.is_zero:
                raise JacobiViolationError((i + 1, j + 1, k + 1), jac)
        return self

    @classmethod
    def trivial(cls, ring: PolyRing) -> "BasePoissonAlgebra":
        return object.__new__(cls)._fill(ring, ())

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    @cached_property
    def matrix(self) -> tuple[tuple[Polynomial, ...], ...]:
        n, zero = self.ring.nvars, self.ring.zero()
        entries = {(j, k): entry for j, k, entry in self.entries}
        return tuple(tuple(entries.get((j, k), zero) for k in range(n)) for j in range(n))

    @cached_property
    def hamiltonians(self) -> tuple[BaseDerivation, ...]:
        """{-, x_k} for each k: it sends x_j to {x_j, x_k}, matrix column k."""
        columns = [[] for _ in self.ring.variables]
        for j, k, entry in self.entries:
            columns[k].append((j, entry))
        return tuple(object.__new__(BaseDerivation)._fill(self.ring, c) for c in columns)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Poisson bracket of two polynomials: the sum over the variables x_k
        of g of {f, x_k} dg/dx_k, where the Hamiltonian image {f, x_k} is
        ``hamiltonians[k](f)`` and reads that derivation's monomial memo."""
        ring = self.ring
        if not self.entries or f.is_constant or g.is_constant:
            return ring.zero()
        for p in (f, g):
            if p.ring != ring:
                raise AmbientMismatchError(ring.variables, p.ring.variables)
        parts = []
        for k, field in enumerate(self.hamiltonians):
            terms = field.moved and _partial_terms(g, k)
            if terms and (image := field(f))._terms:
                parts += [(c, key, image) for key, c in terms]
        return _combination(ring, parts, g._den)

    def __repr__(self):
        kind = "trivial" if self.is_trivial else "nontrivial"
        return "BasePoissonAlgebra(%r, %s bracket)" % (self.ring, kind)


def _chain_rule(ring: PolyRing, moved, key: int) -> Polynomial:
    """The image of the packed monomial ``key`` under the derivation moving
    the variables ``moved``, as (field shift, unit key, image): the sum over
    them of e_v x^(key - unit_v) D(x_v)."""
    parts = [(e, key - unit, img) for shift, unit, img in moved if (e := (key >> shift) & _MASK)]
    return _combination(ring, parts)


@dataclass(frozen=True, init=False)
class BaseDerivation:
    """A derivation of a polynomial ring, built from its generator images.

    Only ``moved``, the (variable index, image) pairs with a nonzero image
    by index, drives the chain rule and takes part in ``==`` and hashing.
    The dense ``images`` and the memo of monomial images are kept per
    instance, outside them.  Internal builds fill a bare instance from
    (index, image) pairs with ``_fill``.
    """

    ring: PolyRing
    moved: tuple[tuple[int, Polynomial], ...]

    def __init__(self, ring: PolyRing, images: Sequence[Polynomial]):
        images = tuple(images)
        if len(images) != ring.nvars:
            raise GwpaError("expected %d derivation images, got %d" % (ring.nvars, len(images)))
        self._fill(ring, tuple(enumerate(images)))

    def _fill(self, ring, pairs):  # (index, image) pairs by index; zeros are dropped
        for _, image in pairs:  # the one check of every image, however it was built
            if not isinstance(image, Polynomial):
                raise GwpaError("derivation images must be polynomials, got %r" % (image,))
            if image.ring != ring:
                raise AmbientMismatchError(ring.variables, image.ring.variables)
        moved = tuple((v, image) for v, image in pairs if not image.is_zero)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "moved", moved)
        fields = tuple((ring._shifts[v], ring.units[v], image) for v, image in moved)
        object.__setattr__(self, "_image_of", cache(partial(_chain_rule, ring, fields)))
        return self

    @classmethod
    def from_images(cls, ring: PolyRing, images: Mapping[str, Polynomial]) -> "BaseDerivation":
        """Build from a name-to-image map; omitted variables map to zero."""
        pairs = sorted((ring.index(name), image) for name, image in images.items())
        try:
            return object.__new__(cls)._fill(ring, pairs)
        except AmbientMismatchError:  # the text this constructor has always given
            raise GwpaError("derivation image lives in a different ring") from None

    @classmethod
    def partial(cls, ring: PolyRing, name: str) -> "BaseDerivation":
        """The coordinate derivation d/d(name)."""
        return cls.from_images(ring, {name: ring.one()})

    @classmethod
    def zero(cls, ring: PolyRing) -> "BaseDerivation":
        return object.__new__(cls)._fill(ring, ())

    @cached_property
    def images(self) -> tuple[Polynomial, ...]:
        moved, zero = dict(self.moved), self.ring.zero()
        return tuple(moved.get(v, zero) for v in range(self.ring.nvars))

    def image_of(self, name: str) -> Polynomial:
        return self.images[self.ring.index(name)]

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.ring is not self.ring and f.ring != self.ring:
            raise GwpaError("derivation applied to polynomial over a different ring")
        return f.map_monomials(self._image_of)

    def negated(self) -> "BaseDerivation":
        return self.scaled(-1)

    def scaled(self, factor) -> "BaseDerivation":
        moved = [(v, img * factor) for v, img in self.moved]
        return object.__new__(BaseDerivation)._fill(self.ring, moved)

    def embedded(self, target: PolyRing, rename=None) -> "BaseDerivation":
        """Zero-extend onto a larger ring, optionally renaming variables."""
        rename = dict(rename or {})
        names = [rename.get(name, name) for name in self.ring.variables]
        for name in names:
            target.index(name)  # every variable needs a place, moved or not
        return BaseDerivation.from_images(
            target, {names[v]: image.embed(target, rename) for v, image in self.moved}
        )

    @property
    def is_zero(self) -> bool:
        return not self.moved

    def __repr__(self):
        parts = ["%s -> %s" % (self.ring.variables[v], img) for v, img in self.moved]
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
    derivation, so generator images decide it, and it kills a variable
    that neither derivation moves."""
    for i in range(len(ders)):
        for j in range(i + 1, len(ders)):
            a, b = ders[i], ders[j]
            if a.ring != b.ring:
                raise GwpaError("derivations live over different rings")
            images_a, images_b, zero = dict(a.moved), dict(b.moved), a.ring.zero()
            for v in sorted(images_a.keys() | images_b.keys()):
                img_a, img_b = images_a.get(v, zero), images_b.get(v, zero)
                if img_a.is_constant and img_b.is_constant:
                    continue  # each term of the commutator kills a constant
                if a(img_b) != b(img_a):
                    return False
    return True
