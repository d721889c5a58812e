"""Reading and writing algebra descriptions as JSON documents.

A document carries one of three kinds of data.  Kind "gwpa" lists the base
variables, the bracket matrix, the parameters and the derivation images.
Kind "gwa" lists the base variables with weights, the parameters with their
weighted degrees, the affine substitution images and the filtration drop.
Kind "ore" lists a base bracket with derivations and central parameters and
builds the algebra realized by :func:`gwpa.engine.from_ore_data`.  All
polynomial entries are strings in the shared grammar; rendering is canonical
so documents round-trip byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .engine import GWPAData, from_ore_data
from .errors import GwpaError, ParseError, SpecError
from .parser import parse_polynomial
from .poisson import BaseDerivation, BasePoissonAlgebra
from .poly import PolyRing, Polynomial, render_polynomial
from .quant import AffineSubstitution, GWAData

# The keys of each kind in the order they are listed, read and rendered:
# key, shape and the sizes of the shape ("n" the number of variables, "r"
# the rank).  "variables" and "rank" are read first, since the other
# shapes are sized by them.
_FIELDS = {
    "gwpa": (
        ("variables", "names", ()),
        ("bracket", "matrix", ("n", "n")),
        ("rank", "rank", ()),
        ("a", "polys", ("r",)),
        ("partials", "matrix", ("r", "n")),
    ),
    "gwa": (
        ("variables", "names", ()),
        ("weights", "ints", ("n",)),
        ("rank", "rank", ()),
        ("a", "polys", ("r",)),
        ("degrees", "ints", ("r",)),
        ("nu", "int", ()),
        ("sigmas", "matrix", ("r", "n")),
    ),
    "ore": (
        ("variables", "names", ()),
        ("bracket", "matrix", ("n", "n")),
        ("rank", "rank", ()),
        ("partials", "matrix", ("r", "n")),
        ("alphas", "polys", ("r",)),
    ),
}


@dataclass(frozen=True)
class AlgebraSpec:
    """A validated algebra description with canonical string entries."""

    kind: str
    variables: tuple[str, ...]
    rank: int
    bracket: tuple[tuple[str, ...], ...] | None = None
    weights: tuple[int, ...] | None = None
    a: tuple[str, ...] | None = None
    degrees: tuple[int, ...] | None = None
    nu: int | None = None
    partials: tuple[tuple[str, ...], ...] | None = None
    sigmas: tuple[tuple[str, ...], ...] | None = None
    alphas: tuple[str, ...] | None = None
    gallery: tuple[tuple[str, object], ...] | None = None

    def build(self):
        """The described algebra, built and validated on the first call.

        Returns GWPAData for kind "gwpa", GWAData for kind "gwa" and an
        OreRealization for kind "ore"; later calls return the same object.
        """
        return self._built

    @cached_property  # not a field, so equality and hashing ignore it
    def _built(self):
        """For a spec made from an algebra: its text is the one route in."""
        return parse_algebra_spec(render_algebra_spec(self))._built


def _list(value, location, item, length=None) -> tuple:
    """A JSON list whose entries all have type ``item`` (str or int)."""
    if not isinstance(value, list) or any(type(x) is not item for x in value):
        raise SpecError(
            "expected a list of %s" % ("strings" if item is str else "integers"),
            location,
        )
    if length is not None and len(value) != length:
        raise SpecError(
            "expected %d entries, found %d" % (length, len(value)), location
        )
    return tuple(value)


def _read(value, shape, sizes, ring, location):
    """Check one field of the given shape; polynomial entries are parsed."""
    if shape == "int":
        if type(value) is not int:
            raise SpecError("expected an integer", location)
        return value
    if shape == "ints":
        return _list(value, location, int, *sizes)
    if shape == "polys":
        parsed = []
        for i, text in enumerate(_list(value, location, str, *sizes)):
            try:
                parsed.append(parse_polynomial(text, ring))
            except ParseError as exc:
                raise SpecError(str(exc), "%s[%d]" % (location, i)) from exc
        return tuple(parsed)
    rows, cols = sizes
    if not isinstance(value, list) or len(value) != rows:
        raise SpecError("expected %d rows" % rows, location)
    return tuple(
        _read(row, "polys", (cols,), ring, "%s[%d]" % (location, i))
        for i, row in enumerate(value)
    )


def _rendered(value):
    """Canonical strings for the polynomials of a field, at any depth."""
    if isinstance(value, Polynomial):
        return render_polynomial(value)
    if isinstance(value, (tuple, list)):
        return tuple(_rendered(entry) for entry in value)
    return value


def _make_ring(variables, location) -> PolyRing:
    try:
        return PolyRing(variables)
    except GwpaError as exc:
        raise SpecError(str(exc), location) from exc


def _canonical_gallery(value) -> tuple[tuple[str, object], ...]:
    if not isinstance(value, dict):
        raise SpecError("expected an object", "gallery")
    name = value.get("name")
    if not isinstance(name, str):
        raise SpecError("expected a string name", "gallery.name")
    params = value.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("expected an object", "gallery.params")
    extras = set(value) - {"name", "params"}
    if extras:
        raise SpecError("unknown keys %r" % sorted(extras), "gallery")
    items = [("name", name)]
    for key in sorted(params):
        val = params[key]
        if not isinstance(val, int) or isinstance(val, bool):
            raise SpecError("expected an integer", "gallery.params.%s" % key)
        items.append((key, val))
    return tuple(items)


def parse_algebra_spec(text: str) -> AlgebraSpec:
    """Parse and fully validate a JSON algebra description.

    Every polynomial string is parsed once: its polynomial is canonically
    re-rendered into the spec and the described algebra is built from it
    here, so that structural violations surface with field locations rather
    than later; ``build()`` returns that algebra.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or a number too long to convert
        raise SpecError("not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise SpecError("top level must be an object")
    kind = doc.get("kind")
    if kind not in _FIELDS:
        raise SpecError(
            "kind must be one of %s" % ", ".join(sorted(_FIELDS)), "kind"
        )
    keys = [key for key, _, _ in _FIELDS[kind]]
    extras = set(doc) - set(keys) - {"kind", "gallery"}
    if extras:
        raise SpecError("unknown keys %r for kind %s" % (sorted(extras), kind))
    missing = [key for key in keys if key not in doc]
    if missing:
        raise SpecError("missing keys %r for kind %s" % (missing, kind))

    variables = _list(doc["variables"], "variables", str)
    ring = _make_ring(variables, "variables")
    rank = doc["rank"]
    if type(rank) is not int or rank < 1:
        raise SpecError("expected a positive integer", "rank")

    fields: dict = {
        "kind": kind,
        "variables": variables,
        "rank": rank,
    }
    if "gallery" in doc:
        fields["gallery"] = _canonical_gallery(doc["gallery"])
    sizes = {"n": ring.nvars, "r": rank}
    for key, shape, dims in _FIELDS[kind]:
        if key not in fields:
            fields[key] = _read(
                doc[key], shape, tuple(sizes[d] for d in dims), ring, key
            )

    spec = AlgebraSpec(**{key: _rendered(value) for key, value in fields.items()})
    object.__setattr__(spec, "_built", _build(spec, ring, fields))
    return spec


def _build(spec: AlgebraSpec, ring: PolyRing, field: dict):
    """The algebra of a spec, from its ring and its fields as read."""
    if spec.kind == "gwa":
        sigmas = []
        for i, images in enumerate(field["sigmas"]):
            try:
                sigmas.append(AffineSubstitution(ring, images))
            except GwpaError as exc:
                raise SpecError(str(exc), "sigmas[%d]" % i) from exc
        try:
            return GWAData(
                ring, sigmas, field["a"], spec.weights, spec.degrees, spec.nu
            )
        except GwpaError as exc:
            raise SpecError(str(exc)) from exc
    try:
        base = BasePoissonAlgebra(ring, field["bracket"])
    except GwpaError as exc:
        raise SpecError(str(exc), "bracket") from exc
    partials = tuple(BaseDerivation(ring, images) for images in field["partials"])
    try:
        if spec.kind == "gwpa":
            return GWPAData.checked(base, field["a"], partials)
        return from_ore_data(base, partials, field["alphas"])
    except GwpaError as exc:
        raise SpecError(str(exc)) from exc


def render_algebra_spec(spec: AlgebraSpec) -> str:
    """Serialize with a fixed key order; output ends with a newline."""
    doc: dict = {"kind": spec.kind}
    if spec.gallery is not None:
        params = dict(spec.gallery)
        doc["gallery"] = {"name": params.pop("name"), "params": params}
    for key, _, _ in _FIELDS[spec.kind]:
        doc[key] = getattr(spec, key)
    return json.dumps(doc, indent=2) + "\n"


def _export(kind, A, gallery, **values) -> AlgebraSpec:
    fields = {"kind": kind, "variables": A.base_ring.variables, "rank": A.rank}
    fields.update((key, _rendered(value)) for key, value in values.items())
    if gallery is not None:
        fields["gallery"] = _canonical_gallery(gallery)
    return AlgebraSpec(**fields)


def spec_from_gwpa(A: GWPAData, gallery=None) -> AlgebraSpec:
    """Export defining data; the result parses back to an equal algebra."""
    return _export(
        "gwpa",
        A,
        gallery,
        bracket=A.base.matrix,
        a=A.a,
        partials=[der.images for der in A.partials],
    )


def spec_from_gwa(A: GWAData, gallery=None) -> AlgebraSpec:
    return _export(
        "gwa",
        A,
        gallery,
        weights=A.weights,
        a=A.a,
        degrees=A.degrees,
        nu=A.nu,
        sigmas=[sigma.images for sigma in A.sigmas],
    )
