"""Seeded random inputs shared by the test modules.

Every test that samples uses its own ``random.Random`` seed so failures
reproduce exactly.  Generators keep coefficients and degrees small; the
suites aim at coverage of sign and overlap cases, not at stress testing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gwpa.engine import GWPAData, GWPAElement
from gwpa.gallery import univariate_family
from gwpa.parser import parse_polynomial
from gwpa.poisson import BaseDerivation, BasePoissonAlgebra
from gwpa.poly import Polynomial, PolyRing


def random_rational(rng: random.Random, span: int = 3) -> Fraction:
    numerator = rng.randint(-span, span)
    if rng.random() < 0.3:
        return Fraction(numerator, rng.randint(1, 3))
    return Fraction(numerator)


def random_polynomial(
    ring: PolyRing, rng: random.Random, degree: int = 3, terms: int = 3
) -> Polynomial:
    """A small polynomial of total degree at most ``degree``."""
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            if ring.nvars:
                exps[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(tuple(exps), random_rational(rng))
    return out


def random_element(
    A: GWPAData,
    rng: random.Random,
    bound: int = 4,
    terms: int = 2,
    window: int = 2,
) -> GWPAElement:
    """An element of total degree at most ``bound``; may be zero."""
    data: dict = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(-window, window) for _ in range(A.rank))
        size = sum(abs(k) for k in alpha)
        if size > bound:
            continue
        poly = random_polynomial(A.base_ring, rng, min(bound - size, 3), 2)
        if not poly.is_zero:
            total = data.get(alpha)
            data[alpha] = poly if total is None else total + poly
    return A.element({a: p for a, p in data.items() if not p.is_zero})


def nonzero_element(A: GWPAData, rng: random.Random, **kwargs) -> GWPAElement:
    while True:
        u = random_element(A, rng, **kwargs)
        if not u.is_zero:
            return u


def random_family(rng: random.Random, rank: int) -> GWPAData:
    """A :func:`univariate_family` algebra: each a_i and b_i is a random
    polynomial of degree at most 2 in H_i alone, possibly zero."""
    ring = PolyRing(["H%d" % i for i in range(1, rank + 1)])

    def own(i):
        powers = [[e if j == i else 0 for j in range(rank)] for e in range(3)]
        return sum((ring.monomial(m, random_rational(rng)) for m in powers), ring.zero())

    return univariate_family([own(i) for i in range(rank)], [own(i) for i in range(rank)])


def so3_based():
    """Rank-1 algebra over the so(3) bracket with the Casimir as parameter."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    zero = ring.zero()
    base = BasePoissonAlgebra(
        ring,
        [[zero, z, -y], [-z, zero, x], [y, -x, zero]],
    )
    hamiltonian = BaseDerivation.from_images(
        ring, {"x": base.bracket(z, x), "y": base.bracket(z, y)}
    )
    casimir = x ** 2 + y ** 2 + z ** 2
    return GWPAData.checked(base, (casimir,), (hamiltonian,))


def heisenberg_based():
    """Rank-1 algebra over {x, y} = z with z central, a = 1 and the weight
    derivation p = x d/dx + y d/dy + 2z d/dz: H_z is zero while the drift
    alpha * 2z is not, so every slice alpha != 0 is zero per generator."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    zero = ring.zero()
    base = BasePoissonAlgebra(ring, [[zero, z, zero], [-z, zero, zero], [zero] * 3])
    weight = BaseDerivation.from_images(ring, {"x": x, "y": y, "z": 2 * z})
    return GWPAData.checked(base, (ring.one(),), (weight,))


def zero_bracket_data(variables, a, partials) -> GWPAData:
    """Checked data over a zero-bracket base: parameters as text and one
    coordinate derivation d/dv per named variable v."""
    ring = PolyRing(variables)
    return GWPAData.checked(
        BasePoissonAlgebra.trivial(ring),
        tuple(parse_polynomial(text, ring) for text in a),
        tuple(BaseDerivation.partial(ring, name) for name in partials),
    )


#: Algebras per seed, and the monomials and coefficients of their
#: polynomials, in the :func:`verdict_corpus`.
CORPUS_SIZE = 200
CORPUS_MONOMIALS = ("1", "H", "Z", "H^2", "H*Z", "Z^2")
CORPUS_COEFFICIENTS = (-2, -1, 1, 2)


def corpus_polynomial(ring: PolyRing, rng: random.Random) -> Polynomial:
    """One to three distinct corpus monomials, each times a coefficient
    drawn in turn.  Each term is built as a product, since a text such as
    ``2*1`` does not parse."""
    monomials = rng.sample(CORPUS_MONOMIALS, rng.randint(1, 3))
    terms = (
        ring.const(rng.choice(CORPUS_COEFFICIENTS)) * parse_polynomial(m, ring) for m in monomials
    )
    return sum(terms, ring.zero())


def verdict_corpus(seed: int) -> list[GWPAData]:
    """The verdict corpus of one seed: rank-1 algebras over Q[H, Z] with
    zero bracket, each drawing a, p(H) and p(Z) in that order.  Tests and
    benchmarks that count verdicts read this one definition."""
    rng = random.Random(seed)
    ring = PolyRing(["H", "Z"])
    base = BasePoissonAlgebra.trivial(ring)
    corpus = []
    for _ in range(CORPUS_SIZE):
        a, p_h, p_z = (corpus_polynomial(ring, rng) for _ in range(3))
        derivation = BaseDerivation.from_images(ring, {"H": p_h, "Z": p_z})
        corpus.append(GWPAData.checked(base, (a,), (derivation,)))
    return corpus
