"""Named example algebras.

Every constructor returns fully validated :class:`GWPAData`.  The classical
Poisson polynomial algebra in 2n variables, the graded algebras attached to
the enveloping algebras of sl2 and of Heisenberg Lie algebras, and a
configurable family with univariate parameters are provided.  The
:data:`GALLERY` table names the algebras the command line knows, including
the quantized ones from :mod:`gwpa.quant`.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Sequence, Union

from .engine import GWPAData
from .errors import GwpaError
from .parser import parse_polynomial
from .poisson import BaseDerivation, BasePoissonAlgebra
from .poly import Polynomial, PolyRing, _make
from .quant import usl2_gwa, weyl_gwa


def p2n(n: int) -> GWPAData:
    """Poisson simple polynomial algebra of rank n: the
    :func:`univariate_family` with a_i = H_i and b_i = 1.

    Base K[H_1..H_n] with zero bracket and p_i = d/dH_i; the induced
    brackets are {Y_i, X_j} = delta_ij with all other generator pairs
    commuting.
    """
    if n < 1:
        raise GwpaError("rank must be at least 1")
    # polynomials over a ring equal to the family's own, so nothing is parsed
    ring = PolyRing(["H%d" % i for i in range(1, n + 1)])
    return univariate_family(ring.gens(), [ring.one()] * n)


def gr_usl2() -> GWPAData:
    """Symmetric algebra of sl2 with its Lie Poisson structure.

    Base K[C, H] with zero bracket, a = C - H^2 and p = d/dH.  Then
    {H, X} = X, {H, Y} = -Y, {X, Y} = 2H, and C = XY + H^2 is Poisson
    central.
    """
    ring = PolyRing(["C", "H"])
    base = BasePoissonAlgebra.trivial(ring)
    a = (ring.var("C") - ring.var("H") ** 2,)
    partials = (BaseDerivation.partial(ring, "H"),)
    return GWPAData.checked(base, a, partials)


def gr_heisenberg(n: int) -> GWPAData:
    """Graded algebra of the rank-n Heisenberg enveloping algebra.

    Base K[H_1..H_n, Z] with zero bracket, a_i = H_i and p_i = Z d/dH_i,
    so {Y_i, X_i} = Z with Z Poisson central.
    """
    if n < 1:
        raise GwpaError("rank must be at least 1")
    names = ["H%d" % i for i in range(1, n + 1)] + ["Z"]
    ring = PolyRing(names)
    base = BasePoissonAlgebra.trivial(ring)
    z = ring.var("Z")
    a = tuple(ring.var("H%d" % i) for i in range(1, n + 1))
    partials = tuple(
        BaseDerivation.from_images(ring, {"H%d" % i: z}) for i in range(1, n + 1)
    )
    return GWPAData.checked(base, a, partials)


PolyLike = Union[str, Polynomial]


def univariate_family(
    a: Sequence[PolyLike], b: Sequence[PolyLike]
) -> GWPAData:
    """Rank-n family with univariate data: a_i in K[H_i], p_i = b_i d/dH_i.

    ``a`` and ``b`` may be polynomial strings (in variables H1..Hn) or
    polynomials over the standard base ring K[H1..Hn].  Entries that are
    not univariate in their own variable are rejected.
    """
    n = len(a)
    if n < 1 or len(b) != n:
        raise GwpaError("need equally many parameters and coefficients, at least one")
    ring = PolyRing(["H%d" % i for i in range(1, n + 1)])
    base = BasePoissonAlgebra.trivial(ring)

    def resolve(entry: PolyLike, which: str, i: int) -> Polynomial:
        if isinstance(entry, str):
            poly = parse_polynomial(entry, ring)
        elif isinstance(entry, Polynomial):
            if entry.ring != ring:
                raise GwpaError(
                    "%s_%d must live over %r" % (which, i, ring)
                )
            poly = _make(ring, entry._terms, entry._den)  # so ring checks are identity tests
        else:
            raise GwpaError("%s_%d must be a string or polynomial" % (which, i))
        used = poly.variables_used()
        own = "H%d" % i
        if any(v != own for v in used):
            raise GwpaError(
                "%s_%d must be univariate in %s, got %s" % (which, i, own, poly)
            )
        return poly

    a_polys = tuple(resolve(entry, "a", i) for i, entry in enumerate(a, start=1))
    b_polys = tuple(resolve(entry, "b", i) for i, entry in enumerate(b, start=1))
    partials = tuple(
        BaseDerivation.from_images(ring, {"H%d" % i: b_polys[i - 1]})
        for i in range(1, n + 1)
    )
    return GWPAData.checked(base, a_polys, partials)


class GalleryEntry(NamedTuple):
    """One algebra name the command line knows."""

    name: str  # shown in help; a trailing "_N" reads the rank n from the token
    listed: str  # the name ``gwpa gallery`` prints
    spec_name: str  # gallery name recorded in a rendered spec
    build: Callable
    params: dict | None  # fixed constructor arguments of a name without "_N"
    aliases: tuple[str, ...] = ()  # further names accepted, never shown


GALLERY = (
    GalleryEntry("p2", "p2", "p2n", p2n, {"n": 1}),
    GalleryEntry("p2n_N", "p2n_2", "p2n", p2n, None),
    GalleryEntry("gr_usl2", "gr_usl2", "gr_usl2", gr_usl2, {}),
    GalleryEntry(
        "gr_heisenberg_N", "gr_heisenberg_1", "gr_heisenberg", gr_heisenberg, None
    ),
    GalleryEntry("weyl_N", "weyl_1", "weyl", weyl_gwa, None),
    GalleryEntry("usl2", "usl2", "usl2_gwa", usl2_gwa, {}, ("usl2_gwa",)),
)
GALLERY_HELP = ", ".join(entry.name for entry in GALLERY)


def resolve_gallery(token: str):
    """Resolve a gallery name to (algebra, spec gallery metadata), or None
    when no entry has that name."""
    for entry in GALLERY:
        if entry.name.endswith("_N"):
            found = re.fullmatch(re.escape(entry.name[:-1]) + r"(\d+)", token)
            params = {"n": int(found.group(1))} if found else None
        else:
            named = token == entry.name or token in entry.aliases
            params = dict(entry.params) if named else None
        if params is not None:
            meta = {"name": entry.spec_name, "params": params}
            return entry.build(**params), meta
    return None
