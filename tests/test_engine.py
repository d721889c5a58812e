"""Algebra engine: products, brackets, constructions, symmetries."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwpa.engine import (
    GWPAData,
    GWPAElement,
    apply_sI,
    from_ore_data,
    generator_label,
    gwpa_mul,
    tensor_product,
    torus_apply,
    validate_gwpa,
)
from gwpa.errors import (
    AlgebraMismatchError,
    AmbientMismatchError,
    GwpaError,
    ValidationFailure,
)
from gwpa.gallery import gr_heisenberg, gr_usl2, p2n, univariate_family
from gwpa.parser import parse_element
from gwpa.poisson import BaseDerivation, BasePoissonAlgebra
from gwpa.poly import Polynomial, PolyRing
from gwpa.quant import AffineSubstitution, GWAData, weyl_gwa

from oracles import (
    biderivation_bracket,
    bracket_oracle_graded,
    bracket_split,
    validation_all_pairs,
)
from sampling import (
    heisenberg_based,
    nonzero_element,
    random_element,
    random_family,
    random_polynomial,
    so3_based,
)


SAMPLE_ALGEBRAS = [p2n(2), gr_usl2(), gr_heisenberg(1), so3_based()]


def test_defining_relations_p2n2():
    A = p2n(2)
    ring = A.base_ring
    for i in (1, 2):
        for name in ring.variables:
            d = A.scalar(ring.var(name))
            expected = A.partials[i - 1](ring.var(name))
            assert A.Y(i).bracket(d) == A.scalar(expected) * A.Y(i)
            assert A.X(i).bracket(d) == A.scalar(-expected) * A.X(i)
        assert A.Y(i).bracket(A.X(i)) == A.one()
    assert A.X(1).bracket(A.X(2)).is_zero
    assert A.X(1).bracket(A.Y(2)).is_zero
    assert A.Y(1).bracket(A.Y(2)).is_zero


def test_defining_relations_gr_usl2():
    A = gr_usl2()
    ring = A.base_ring
    C = ring.var("C")
    H = ring.var("H")
    X, Y = A.X(1), A.Y(1)
    assert A.scalar(H).bracket(X) == X
    assert A.scalar(H).bracket(Y) == -Y
    assert X.bracket(Y) == A.scalar(2 * H)
    assert X * Y == A.scalar(C - H ** 2)
    assert X * Y + A.scalar(H ** 2) == A.scalar(C)
    for g in A.generators():
        assert A.scalar(C).bracket(g).is_zero


def test_defining_relations_gr_heisenberg():
    A = gr_heisenberg(1)
    ring = A.base_ring
    Z = ring.var("Z")
    H1 = ring.var("H1")
    assert A.Y(1).bracket(A.X(1)) == A.scalar(Z)
    assert A.X(1).bracket(A.scalar(H1)) == A.scalar(-Z) * A.X(1)
    assert A.X(1) * A.Y(1) == A.scalar(H1)
    for g in A.generators():
        assert A.scalar(Z).bracket(g).is_zero


def test_product_overlap_values():
    A = p2n(1)
    H = A.base_ring.var("H1")
    assert A.Y(1) * A.X(1) == A.scalar(H)
    assert A.X(1) * A.Y(1) == A.scalar(H)
    assert A.X(1) ** 2 * A.Y(1) == A.scalar(H) * A.X(1)
    assert A.X(1) ** 2 * A.Y(1) ** 3 == A.scalar(H ** 2) * A.Y(1)

    B = gr_usl2()
    a = B.base_ring.var("C") - B.base_ring.var("H") ** 2
    assert B.X(1) ** 2 * B.Y(1) ** 2 == B.scalar(a ** 2)

    C2 = p2n(2)
    mixed = C2.X(1) * C2.Y(2)
    assert mixed == C2.v((1, -1))
    assert mixed * C2.v((-1, 1)) == C2.scalar(
        C2.base_ring.var("H1") * C2.base_ring.var("H2")
    )


def test_multiplication_axioms_randomized():
    rng = random.Random(23)
    for A in SAMPLE_ALGEBRAS:
        for _ in range(12):
            u = random_element(A, rng)
            v = random_element(A, rng)
            w = random_element(A, rng)
            assert u * v == v * u
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert u * A.one() == u
            assert (u * A.zero()).is_zero


def test_bracket_axioms_randomized():
    rng = random.Random(31)
    for A in SAMPLE_ALGEBRAS:
        for _ in range(8):
            u = random_element(A, rng, bound=3)
            v = random_element(A, rng, bound=3)
            w = random_element(A, rng, bound=3)
            assert u.bracket(v) == -(v.bracket(u))
            assert u.bracket(v * w) == u.bracket(v) * w + v * u.bracket(w)
            jacobiator = (
                u.bracket(v.bracket(w))
                + v.bracket(w.bracket(u))
                + w.bracket(u.bracket(v))
            )
            assert jacobiator.is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.randoms(use_true_random=False))
def test_bracket_axioms_on_random_families(rank, rng):
    A = random_family(rng, rank)
    u, v, w = (random_element(A, rng, bound=3) for _ in range(3))
    assert u.bracket(v) == -(v.bracket(u))
    assert u.bracket(v * w) == u.bracket(v) * w + v * u.bracket(w)
    jacobiator = (
        u.bracket(v.bracket(w)) + v.bracket(w.bracket(u)) + w.bracket(u.bracket(v))
    )
    assert jacobiator.is_zero


def test_bracket_strategies_agree():
    rng = random.Random(47)
    for A in SAMPLE_ALGEBRAS:
        for _ in range(10):
            u = random_element(A, rng, bound=3)
            v = random_element(A, rng, bound=3)
            assert u.bracket(v) == bracket_split(u, v)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, "so3"]), st.integers(0, 2 ** 32))
def test_bracket_matches_leibniz_oracle_with_reused_images(kind, seed):
    # One element against several partners, then again, so that the second
    # round reads every derivation image from the operands' caches.  The
    # mirrored partner meets each term of u with opposite signs.
    rng = random.Random(seed)
    A = so3_based() if kind == "so3" else random_family(rng, kind)
    u = nonzero_element(A, rng, bound=3, terms=3)
    mirror = A.element({
        tuple(-x for x in alpha): random_polynomial(A.base_ring, rng, 2, 2)
        for alpha in u.terms()
    })
    other = nonzero_element(A, rng, bound=3, terms=3)
    partners = [mirror, other, u, other + mirror]
    fresh = [A.element(x.terms()) for x in [u] + partners]
    expected = [(bracket_split(u, v), bracket_split(v, u)) for v in partners]
    for _ in range(2):
        for v, (uv, vu) in zip(partners, expected):
            assert u.bracket(v) == uv
            assert v.bracket(u) == vu
    for x, copy in zip([u] + partners, fresh):
        assert x == copy and hash(x) == hash(copy)


@pytest.mark.parametrize(
    "make", [lambda: p2n(2), lambda: gr_heisenberg(2), so3_based],
    ids=["p2n_2", "gr_heisenberg_2", "so3"],
)
def test_bracket_applies_each_derivation_once_per_term(make, monkeypatch):
    A = make()
    x = A.base_ring.gens()[0]
    degrees = [A.zero_alpha, A._unit(1, 1), A._unit(1, -1)]
    degrees.append(tuple(2 if i == 0 else -1 for i in range(A.rank)))
    u = A.element({alpha: x + j for j, alpha in enumerate(degrees, start=1)})
    gens = A.generators()
    for i in range(A.rank):
        A.p_of_a(i)  # cached on the algebra; a_i may equal a coefficient
    calls = Counter()
    original = BaseDerivation.__call__

    def counted(der, f):
        calls[id(der), f] += 1
        return original(der, f)

    monkeypatch.setattr(BaseDerivation, "__call__", counted)
    results = [(u.bracket(g), g.bracket(u)) for g in gens]
    monkeypatch.undo()
    assert calls and max(calls.values()) == 1
    for g, (ug, gu) in zip(gens, results):
        assert ug == bracket_split(u, g) == -gu


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([so3_based(), heisenberg_based()]), st.integers(0, 2 ** 32))
def test_brackets_over_a_nonzero_base_match_the_biderivation_oracle(A, seed):
    # bracket_split reads A.base.bracket for coefficient atoms, so the base
    # bracket is checked against the dense matrix first.
    rng = random.Random(seed)
    f, g = (random_polynomial(A.base_ring, rng, 3, 3) for _ in range(2))
    assert A.base.bracket(f, g) == biderivation_bracket(A.base, f, g)
    u, v = (nonzero_element(A, rng, bound=3, terms=3) for _ in range(2))
    assert u.bracket(v) == bracket_split(u, v)


def test_so3_bracket_takes_each_hamiltonian_image_once_per_term(monkeypatch):
    # {d, e} is folded from {d, x_k} for the three variables, so a 6-term u
    # needs at most 6 * 3 base brackets, not one per term pair (36).
    A = so3_based()
    x, y, z = A.base_ring.gens()
    u = A.element({(k,): x * y + k * z ** 2 for k in range(-2, 4)})
    v = A.element({(k,): (x - k) * z + y ** 2 for k in range(-3, 3)})
    calls = []
    original = BasePoissonAlgebra.bracket

    def counted(base, f, g):
        calls.append((f, g))
        return original(base, f, g)

    monkeypatch.setattr(BasePoissonAlgebra, "bracket", counted)
    result = u.bracket(v)
    monkeypatch.undo()
    assert len(u.terms()) == len(v.terms()) == 6
    assert 0 < len(calls) <= 6 * 3
    assert result == bracket_split(u, v)


@pytest.mark.parametrize("make", [lambda: p2n(2), lambda: gr_heisenberg(2)], ids=["p2n_2", "gr_heisenberg_2"])
def test_overlap_in_both_coordinates_matches_the_leibniz_oracle(make):
    # X1^2*X2 meets Y1*Y2^3 in both coordinates at once, and both p_i(a_i)
    # are nonzero, so Q has two pieces.
    A = make()
    H1, H2 = A.base_ring.var("H1"), A.base_ring.var("H2")
    scale = A.p_of_a(0)
    assert not scale.is_zero and A.p_of_a(1) == scale
    u = parse_element("(H1+1)*X1^2*X2", A)
    v = parse_element("(H2^2-1/2)*Y1*Y2^3", A)
    assert u.bracket(v) == bracket_split(u, v)
    assert v.bracket(u) == bracket_split(v, u)
    # weights |alpha_i| beta_i: 2*(-1) and 1*(-3), then 1*2 and 3*1
    assert A.overlap_factors(((0, 1, -2), (1, 1, -3))) == (H1 * H2, scale * (-2 * H2 - 3 * H1))
    assert A.overlap_factors(((0, 1, 2), (1, 1, 3))) == (H1 * H2, scale * (2 * H2 + 3 * H1))
    assert set(A._overlaps) == {((0, 1, -2), (1, 1, -3)), ((0, 1, 2), (1, 1, 3))}


def test_overlap_with_a_killed_parameter_adds_no_correction(monkeypatch):
    # a = 1 and p = d/dH1, so p(a) = 0: Q is zero and the pair kernel runs
    # no "+"; on p2n_1 the same pair runs exactly one.
    killed, plain = univariate_family(["1"], ["1"]), p2n(1)
    additions = Counter()
    original = Polynomial.__add__

    def counted(f, g):
        additions[current] += 1
        return original(f, g)

    for current in ("killed", "plain"):
        A = killed if current == "killed" else plain
        u = parse_element("(H1+2)*X1^2", A)
        v = parse_element("(H1^2+1)*Y1", A)
        expected = bracket_split(u, v)
        assert u.bracket(v) == expected  # fills the images and the factors
        monkeypatch.setattr(Polynomial, "__add__", counted)
        assert u.bracket(v) == expected
        monkeypatch.undo()
    assert killed.overlap_factors(((0, 1, -2),)) == (killed.base_ring.one(), killed.base_ring.zero())
    assert additions == Counter(plain=1)


def test_overlap_factors_are_read_back_for_other_coefficients(monkeypatch):
    A = p2n(2)
    fresh = p2n(2)
    pattern = ((0, 1, -2), (1, 1, -3))
    v = parse_element("(H2^2-1/2)*Y1*Y2^3", A)
    first = parse_element("(H1+1)*X1^2*X2", A)
    assert first.bracket(v) == bracket_split(first, v)
    factors = A._overlaps[pattern]
    powers = Counter()
    original = GWPAData.a_power

    def counted(data, i, m):
        powers[i, m] += 1
        return original(data, i, m)

    others = [parse_element(text, A) for text in ("(3*H2^2-1/2)*X1^2*X2", "-2/3*H1*H2*X1^2*X2")]
    expected = [bracket_split(u, v) for u in others]
    monkeypatch.setattr(GWPAData, "a_power", counted)
    results = [u.bracket(v) for u in others]
    monkeypatch.undo()
    assert results == expected
    assert not powers
    assert A._overlaps[pattern] is factors and len(A._overlaps) == 1
    assert A == fresh and hash(A) == hash(fresh)


def test_brackets_past_the_degree_limit_name_the_degree():
    half = 2 ** 31
    A = so3_based()
    x, y, _ = A.base_ring.gens()
    assert A.base.bracket(x ** half, y ** half).total_degree == 2 ** 32 - 1
    with pytest.raises(GwpaError, match="degree 4294967297 exceeds"):
        A.base.bracket(x ** (half + 1), y ** (half + 1))
    with pytest.raises(GwpaError, match="degree 4294967296 exceeds"):
        A.element({(1,): x ** (half + 1)}).bracket(A.element({(-1,): y ** half}))
    B = p2n(1)
    H = B.base_ring.var("H1")
    assert B.scalar(H ** half).bracket(B.X(1) * H ** (half - 1)).total_degree == 2 ** 32 - 1
    with pytest.raises(GwpaError, match="degree 4294967296 exceeds"):
        B.scalar(H ** (half + 1)).bracket(B.X(1) * H ** half)
    C = gr_heisenberg(1)
    H1, Z = C.base_ring.gens()
    with pytest.raises(GwpaError, match="degree 4294967300 exceeds"):
        (C.Y(1) * H1 ** (half + 3)).bracket(C.X(1) * (H1 ** half * Z))


def test_bracket_oracle_graded_agreement():
    rng = random.Random(61)
    for A in SAMPLE_ALGEBRAS:
        for _ in range(10):
            lam = random_polynomial(A.base_ring, rng, 2, 2)
            alpha = tuple(rng.randint(-2, 2) for _ in range(A.rank))
            target = A.element({alpha: lam}) if not lam.is_zero else A.zero()
            d = random_polynomial(A.base_ring, rng, 2, 2)
            assert bracket_oracle_graded(A, d, lam, alpha) == A.scalar(d).bracket(
                target
            )
            i = rng.randint(1, A.rank)
            for gen in (A.X(i), A.Y(i)):
                assert bracket_oracle_graded(A, gen, lam, alpha) == gen.bracket(
                    target
                )
    A = p2n(1)
    with pytest.raises(GwpaError):
        bracket_oracle_graded(A, A.one() + A.X(1), A.base_ring.one(), (0,))


def test_product_and_bracket_respect_grading():
    rng = random.Random(73)
    for A in SAMPLE_ALGEBRAS:
        for _ in range(10):
            alpha = tuple(rng.randint(-2, 2) for _ in range(A.rank))
            beta = tuple(rng.randint(-2, 2) for _ in range(A.rank))
            u = A.element({alpha: random_polynomial(A.base_ring, rng, 2, 2)})
            v = A.element({beta: random_polynomial(A.base_ring, rng, 2, 2)})
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            for result in (u * v, u.bracket(v)):
                assert set(result.support()) <= {gamma}


def test_ore_construction_constant_parameter():
    ring = PolyRing(["Z"])
    D = BasePoissonAlgebra.trivial(ring)
    d_z = BaseDerivation.partial(ring, "Z")
    realization = from_ore_data(D, [d_z], [ring.one()])
    A = realization.algebra
    assert realization.new_vars == ("H1",)
    assert A.rank == 1
    H1 = A.base_ring.var("H1")
    assert A.Y(1).bracket(A.X(1)) == A.one()
    assert A.X(1) * A.Y(1) == A.scalar(H1)
    Z = A.base_ring.var("Z")
    assert A.X(1).bracket(A.scalar(Z)) == -A.X(1)


def test_ore_construction_variable_parameter():
    ring = PolyRing(["Z"])
    D = BasePoissonAlgebra.trivial(ring)
    d_z = BaseDerivation.partial(ring, "Z")
    A = from_ore_data(D, [d_z], [ring.var("Z")]).algebra
    Z = A.base_ring.var("Z")
    H1 = A.base_ring.var("H1")
    assert A.Y(1).bracket(A.X(1)) == A.scalar(Z)
    assert A.X(1) * A.Y(1) == A.scalar(H1)
    for g in A.generators():
        lhs = A.X(1).bracket(g) * A.Y(1) + A.X(1) * A.Y(1).bracket(g)
        assert lhs == A.scalar(H1).bracket(g)


def test_ore_construction_rank_two_and_name_collision():
    ring = PolyRing(["Z"])
    D = BasePoissonAlgebra.trivial(ring)
    d_z = BaseDerivation.partial(ring, "Z")
    zero = BaseDerivation.zero(ring)
    realization = from_ore_data(D, [d_z, zero], [ring.var("Z"), ring.const(3)])
    A = realization.algebra
    assert realization.new_vars == ("H1", "H2")
    assert A.Y(1).bracket(A.X(1)) == A.scalar(A.base_ring.var("Z"))
    assert A.Y(2).bracket(A.X(2)) == A.scalar(3)
    assert A.Y(1).bracket(A.X(2)).is_zero

    clash = PolyRing(["H1"])
    E = BasePoissonAlgebra.trivial(clash)
    taken = from_ore_data(E, [BaseDerivation.partial(clash, "H1")], [clash.one()])
    assert taken.new_vars == ("H1_",)


def test_ore_construction_rejects_bad_input():
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
    with pytest.raises(GwpaError):
        from_ore_data(base, [hamiltonian], [x])
    with pytest.raises(GwpaError):
        from_ore_data(base, [BaseDerivation.partial(ring, "x")], [ring.one()])
    # the input is checked as defining data, every violation reported
    with pytest.raises(ValidationFailure) as info:
        from_ore_data(base, [BaseDerivation.partial(ring, "x")], [x])
    conditions = [v.condition for v in info.value.report.violations]
    assert conditions == ["poisson-derivation", "central-parameter"]


def test_tensor_product_of_planes():
    result = tensor_product([p2n(1), p2n(1)])
    A = result.algebra
    assert A.rank == 2
    assert A.base_ring.variables == ("H1", "H1_2")
    assert result.renamings == ({}, {"H1": "H1_2"})
    assert A.Y(1).bracket(A.X(1)) == A.one()
    assert A.Y(2).bracket(A.X(2)) == A.one()
    assert A.X(1).bracket(A.Y(2)).is_zero
    assert A.X(1) * A.Y(1) == A.scalar(A.base_ring.var("H1"))
    assert A.X(2) * A.Y(2) == A.scalar(A.base_ring.var("H1_2"))


def test_tensor_product_mixed_factors():
    result = tensor_product([p2n(1), gr_usl2()])
    A = result.algebra
    assert A.base_ring.variables == ("H1", "C", "H")
    assert result.renamings == ({}, {})
    C = A.base_ring.var("C")
    H = A.base_ring.var("H")
    assert A.Y(2).bracket(A.X(2)) == A.scalar(-2 * H)
    assert A.X(2) * A.Y(2) == A.scalar(C - H ** 2)
    assert A.Y(1).bracket(A.X(1)) == A.one()
    assert A.X(1).bracket(A.scalar(C)).is_zero
    with pytest.raises(GwpaError):
        tensor_product([])


def test_ore_realization_is_the_hand_built_algebra():
    # over so(3) with {z, -} and the Casimir: H1 joins as a central variable
    so3 = so3_based()
    ring = PolyRing(["x", "y", "z", "H1"])
    x, y, z, H1 = ring.gens()
    zero = ring.zero()
    casimir = x ** 2 + y ** 2 + z ** 2
    base = BasePoissonAlgebra(
        ring,
        [[zero, z, -y, zero], [-z, zero, x, zero], [y, -x, zero, zero], [zero] * 4],
    )
    realization = from_ore_data(so3.base, so3.partials, so3.a)
    assert realization.algebra == GWPAData(
        base, (H1,), (BaseDerivation(ring, (y, -x, zero, casimir)),)
    )
    # rank two: the i-th derivation sends H_i, and only H_i, to alpha_i
    small = PolyRing(["Z"])
    realization = from_ore_data(
        BasePoissonAlgebra.trivial(small),
        [BaseDerivation.partial(small, "Z"), BaseDerivation.zero(small)],
        [small.var("Z"), small.const(3)],
    )
    ring = PolyRing(["Z", "H1", "H2"])
    Z, H1, H2 = ring.gens()
    assert realization.algebra == GWPAData(
        BasePoissonAlgebra.trivial(ring),
        (H1, H2),
        (
            BaseDerivation(ring, (ring.one(), Z, ring.zero())),
            BaseDerivation(ring, (ring.zero(), ring.zero(), ring.const(3))),
        ),
    )


def test_tensor_square_renames_a_nontrivial_bracket_block():
    so3 = so3_based()
    result = tensor_product([so3, so3])
    names = {"x": "x_2", "y": "y_2", "z": "z_2"}
    assert result.renamings == ({}, names)
    ring = PolyRing(["x", "y", "z", "x_2", "y_2", "z_2"])
    x, y, z, x2, y2, z2 = ring.gens()
    zero = ring.zero()
    block = [[zero, z, -y], [-z, zero, x], [y, -x, zero]]
    block2 = [[zero, z2, -y2], [-z2, zero, x2], [y2, -x2, zero]]
    base = BasePoissonAlgebra(
        ring, [row + [zero] * 3 for row in block] + [[zero] * 3 + row for row in block2]
    )
    A = result.algebra
    assert A == GWPAData(
        base,
        [x ** 2 + y ** 2 + z ** 2, x2 ** 2 + y2 ** 2 + z2 ** 2],  # lists become tuples
        [
            BaseDerivation(ring, (y, -x, zero, zero, zero, zero)),
            BaseDerivation(ring, (zero, zero, zero, y2, -x2, zero)),
        ],
    )
    assert A.scalar(x2).bracket(A.scalar(y2)) == A.scalar(z2)
    assert A.scalar(x).bracket(A.scalar(y2)).is_zero
    assert A.X(2).bracket(A.scalar(x2)) == -A.scalar(y2) * A.X(2)
    assert A.X(1).bracket(A.scalar(x2)).is_zero


def test_swap_involution():
    A = p2n(2)
    rng = random.Random(89)
    u = nonzero_element(A, rng)
    target, moved = apply_sI(A, [1], u)
    assert target.partials[0](A.base_ring.var("H1")) == -A.base_ring.one()
    assert target.partials[1](A.base_ring.var("H2")) == A.base_ring.one()
    back_algebra, back = apply_sI(target, [1], moved)
    assert back_algebra == A
    assert back == u
    assert apply_sI(A, [1], A.X(1))[1] == target.Y(1)

    v = nonzero_element(A, rng)
    _, mu = apply_sI(A, [1], v)
    _, mb = apply_sI(A, [1], u.bracket(v))
    assert moved.bracket(mu) == mb

    algebra_only, nothing = apply_sI(A, [2])
    assert nothing is None
    assert algebra_only.partials[0](A.base_ring.var("H1")) == A.base_ring.one()
    with pytest.raises(GwpaError):
        apply_sI(A, [3])
    with pytest.raises(AlgebraMismatchError):
        apply_sI(A, [1], p2n(1).one())


def test_torus_action():
    A = gr_usl2()
    assert torus_apply(A.X(1), [2]) == A.scalar(2) * A.X(1)
    assert torus_apply(A.Y(1), [2]).scaled(A.base_ring.const(2)) == A.Y(1)
    rng = random.Random(97)
    u = random_element(A, rng, bound=3)
    v = random_element(A, rng, bound=3)
    assert torus_apply(u, [1]) == u
    both = torus_apply(torus_apply(u, [2]), [3])
    assert both == torus_apply(u, [6])
    lam = [rng.choice([2, 3, -1, Fraction(1, 2)])]
    assert torus_apply(u.bracket(v), lam) == torus_apply(u, lam).bracket(
        torus_apply(v, lam)
    )
    with pytest.raises(GwpaError):
        torus_apply(u, [0])
    with pytest.raises(GwpaError):
        torus_apply(u, [1, 1])


def test_indices_and_scale_factors_are_exact():
    """Indices are integers and scale factors exact rationals; anything
    else raises GwpaError instead of being truncated or read as a float."""
    A = p2n(1)
    u = A.X(1) + A.scalar(A.base_ring.var("H1")) * A.Y(1) ** 2
    for I in ([1.7], ["1"], [Fraction(1)]):
        with pytest.raises(GwpaError, match="indices .* must be integers"):
            apply_sI(A, I, u)
    assert apply_sI(A, [True], u) == apply_sI(A, [1], u)
    for i in (1.5, 1.0, "1"):
        with pytest.raises(GwpaError, match="generator index must be an integer"):
            A.X(i)
    assert A.Y(True) == A.Y(1)
    for lam in ([0.1], ["1/2"], [None]):
        with pytest.raises(GwpaError, match="must be int or Fraction"):
            torus_apply(u, lam)
    H = A.base_ring.var("H1")
    assert torus_apply(u, [-1]) == -A.X(1) + A.scalar(H) * A.Y(1) ** 2
    assert torus_apply(u, [Fraction(2, 3)]) == (
        A.scalar(Fraction(2, 3)) * A.X(1) + A.scalar(Fraction(9, 4) * H) * A.Y(1) ** 2
    )
    assert torus_apply(u, [2]) == torus_apply(u, [Fraction(2)]) == (
        2 * A.X(1) + A.scalar(H / 4) * A.Y(1) ** 2
    )
    assert torus_apply(u, [True]) == u
    assert all(
        type(c) in (int, Fraction)
        for _, poly in torus_apply(u, [-1]).items()
        for _, c in poly.items()
    )


def test_coefficients_are_exact_rationals():
    A = p2n(1)
    ring = A.base_ring
    for attempt in (
        lambda: A.scalar(0.5),
        lambda: ring.const(0.5),
        lambda: Polynomial(ring, {(1,): 0.5}),
        lambda: A.X(1).scaled(0.5),
        lambda: A.zero().scaled(0.5),
        lambda: A.scalar("1/2"),
    ):
        with pytest.raises(GwpaError, match="must be int or Fraction"):
            attempt()
    assert A.X(1).scaled(True) == A.X(1)
    assert ring.const(True) == ring.one()
    assert A.X(1).scaled(Fraction(2, 3)) == Fraction(2, 3) * A.X(1)
    with pytest.raises(AmbientMismatchError):
        A.zero().scaled(PolyRing(["W"]).var("W"))


def test_rendering():
    A = p2n(1)
    H = A.base_ring.var("H1")
    assert str(A.zero()) == "0"
    assert str(A.scalar(2) + A.scalar(H) * A.X(1)) == "2 + H1*X1"
    assert str(A.Y(1) ** 2 * A.X(1)) == "H1*Y1"
    assert str(A.X(1) ** 2 * A.Y(1) ** 3) == "H1^2*Y1"
    assert str((A.scalar(H) + A.one()) * A.X(1)) == "(H1 + 1)*X1"

    B = gr_usl2()
    assert str(B.X(1) * B.Y(1)) == "-H^2 + C"
    assert str(B.X(1).bracket(B.Y(1))) == "2*H"
    assert str(B.scalar(B.base_ring.var("H")) + B.X(1) + B.Y(1)) == "H + X1 + Y1"

    C2 = p2n(2)
    assert str(C2.X(1) * C2.Y(2) ** 2) == "X1*Y2^2"
    assert generator_label((2, -1)) == "X1^2*Y2"
    assert generator_label((0, 0)) == ""


def test_element_accessors_and_errors():
    A = p2n(2)
    H1 = A.base_ring.var("H1")
    u = A.element({(1, 0): H1, (0, -2): A.base_ring.one()})
    assert u.support() == [(1, 0), (0, -2)]
    assert u.coefficient((1, 0)) == H1
    assert u.coefficient((5, 5)).is_zero
    assert u.component((0, -2)) == A.v((0, -2))
    assert u.total_degree == 2
    assert (u * u).total_degree == 4
    assert A.zero().total_degree == float("-inf")
    assert u ** 0 == A.one()
    assert u ** 2 == u * u
    with pytest.raises(GwpaError):
        u ** -1
    with pytest.raises(GwpaError):
        A.v((1, 2, 3))
    with pytest.raises(AlgebraMismatchError):
        u + p2n(1).one()
    with pytest.raises(GwpaError):
        A.scalar(PolyRing(["W"]).one())
    assert 3 * u == u.scaled(A.base_ring.const(3))
    assert u - u == A.zero()


@pytest.mark.parametrize("make", [lambda: p2n(2), lambda: weyl_gwa(2)], ids=["p2n_2", "weyl_2"])
def test_coefficient_rejects_a_degree_tuple_of_the_wrong_length(make):
    A = make()
    u = A.X(1) + A.scalar(A.base_ring.var("H1")) * A.Y(2)
    assert u.coefficient((0, -1)) == A.base_ring.var("H1")
    assert u.coefficient((-7, 0)).is_zero
    for alpha in ((5,), (1, 0, 0), ()):
        with pytest.raises(GwpaError, match="does not match rank 2"):
            u.coefficient(alpha)


@pytest.mark.parametrize("make", [lambda: p2n(1), lambda: weyl_gwa(1)], ids=["p2n_1", "weyl_1"])
def test_elements_refuse_non_integer_degrees(make):
    A = make()
    u = A.X(1)
    for alpha in ((1.5,), (Fraction(3, 2),), ("2",), (Fraction(2),), (1.0,)):
        with pytest.raises(GwpaError, match="must hold integers"):
            A.element({alpha: 1})
        with pytest.raises(GwpaError, match="must hold integers"):
            u.coefficient(alpha)
    assert A.element({(True,): 1}) == u
    assert u.coefficient((True,)) == A.base_ring.one()


@pytest.mark.parametrize("make", [lambda: p2n(2), lambda: weyl_gwa(1)], ids=["p2n_2", "weyl_1"])
def test_powers_by_squaring_match_repeated_products(make):
    A = make()
    u = A.X(1) + A.scalar(A.base_ring.var("H1")) * A.Y(1)
    product = A.one()
    for _ in range(7):
        product = product * u
    assert u ** 7 == product
    assert parse_element("X1^5", A) == A.X(1) ** 5


@pytest.mark.parametrize("make", [lambda: p2n(1), lambda: weyl_gwa(1)], ids=["p2n_1", "weyl_1"])
def test_scalar_powers_name_the_requested_degree(make):
    A = make()
    H = A.base_ring.var("H1")
    h = A.scalar(H)
    assert h ** 5 == A.scalar(H ** 5)
    assert h ** 0 == A.one()
    assert A.scalar(H + 2) ** 3 == A.scalar(H + 2) * A.scalar(H + 2) * A.scalar(H + 2)
    with pytest.raises(GwpaError, match="degree 4294967297 exceeds"):
        h ** 4294967297


def test_elements_hash_consistently_with_equality():
    for A in (p2n(2), weyl_gwa(1)):
        u = A.X(1) + A.scalar(3)
        v = A.scalar(3) + A.X(1)
        assert u == v and hash(u) == hash(v)
        assert len({u, v, A.X(1)}) == 2
        assert A.zero_alpha == (0,) * A.rank


def test_equal_scalars_are_the_same_set_member():
    """A value, its constant or base polynomial and its scalar element are
    equal, so each finds the others in a set, in both directions."""
    for A in (p2n(1), weyl_gwa(1)):
        ring = A.base_ring
        h = ring.gens()[0]
        for value, poly in ((3, ring.const(3)), (Fraction(-2, 3), ring.const(Fraction(-2, 3))),
                            (h, h), (0, ring.zero())):
            element = A.scalar(value)
            for x, y in ((value, poly), (value, element), (poly, element)):
                assert x == y and y == x
                assert x in {y} and y in {x}


def test_base_variables_may_not_shadow_generators():
    ring = PolyRing(["X1"])
    with pytest.raises(GwpaError, match="clashes"):
        GWPAData(
            BasePoissonAlgebra.trivial(ring),
            (ring.var("X1"),),
            (BaseDerivation.partial(ring, "X1"),),
        )
    line = PolyRing(["Y2"])
    shift = AffineSubstitution.from_map(line, {"Y2": line.var("Y2") - 1})
    with pytest.raises(GwpaError, match="clashes"):
        GWAData(line, (shift,), (line.var("Y2"),), (1,), (1,))
    plain = PolyRing(["X", "HX1"])
    GWPAData(
        BasePoissonAlgebra.trivial(plain),
        (plain.var("X"),),
        (BaseDerivation.partial(plain, "X"),),
    )


def test_foreign_polynomials_raise_ambient_mismatch():
    foreign = PolyRing(["W"]).one()
    for A in (p2n(1), weyl_gwa(1)):
        for attempt in (
            lambda: A.scalar(foreign),
            lambda: A.X(1) + foreign,
            lambda: foreign - A.X(1),
            lambda: A.X(1) * foreign,
            lambda: A.zero() * foreign,
            lambda: foreign * A.zero(),
            lambda: A.element({(0,): foreign}),
        ):
            with pytest.raises(AmbientMismatchError):
                attempt()


@pytest.mark.parametrize(
    "make, texts",
    [
        (lambda: p2n(2), ["(H1^2 - 1/2)*X1*Y2 + 3*Y1^2 + H2", "1"]),
        (gr_usl2, ["(C + H)*X1^2 - 2/3*H*Y1"]),
        (lambda: weyl_gwa(1), ["(H1 + 1)*X1^2 - 1/2*Y1 + H1^2"]),
    ],
    ids=["p2n_2", "gr_usl2", "weyl_1"],
)
def test_scalars_take_the_product_route_on_both_sides(make, texts):
    """An int, a Fraction or a base polynomial multiplies as its image under
    ``scalar``, from either side and on the zero element too.  Rationals are
    central everywhere; a base polynomial commutes only on the Poisson side
    (in weyl_1, X1*H1 = (H1 - 1)*X1)."""
    A = make()
    ring = A.base_ring
    h = ring.gens()[0]
    elements = [A.zero()] + [parse_element(text, A) for text in texts]
    for u in elements:
        for c in (0, 3, -2, Fraction(-2, 3), h ** 2 - Fraction(1, 2), ring.zero()):
            assert u * c == u * A.scalar(c)
            assert c * u == A.scalar(c) * u
            if isinstance(u, GWPAElement):
                assert u * c == c * u == u.scaled(c)
            elif not isinstance(c, Polynomial):
                assert u * c == c * u
    u, v = elements[-1], A.X(1) + A.scalar(h)
    if isinstance(u, GWPAElement):
        assert gwpa_mul(u, v) == u * v
        assert gwpa_mul(v, u) == v * u


def test_validation_violations():
    ring = PolyRing(["H1", "H2"])
    trivial = BasePoissonAlgebra.trivial(ring)
    H1, H2 = ring.gens()

    twisted = BaseDerivation.from_images(ring, {"H1": H2})
    noncommuting = GWPAData(
        trivial, (H1, H2), (twisted, BaseDerivation.partial(ring, "H2"))
    )
    report = validate_gwpa(noncommuting)
    assert not report.ok
    assert [(v.condition, v.indices) for v in report.violations] == [
        ("commuting-derivations", (1, 2))
    ]
    with pytest.raises(ValidationFailure) as info:
        GWPAData.checked(trivial, (H1, H2), (twisted, BaseDerivation.partial(ring, "H2")))
    assert info.value.report.violations[0].condition == "commuting-derivations"

    leaking = BaseDerivation.from_images(ring, {"H1": ring.one(), "H2": ring.one()})
    crossing = GWPAData(
        trivial, (H1, H2), (leaking, BaseDerivation.partial(ring, "H2"))
    )
    conditions = {v.condition for v in validate_gwpa(crossing).violations}
    assert conditions == {"cross-constant"}

    so3_ring = PolyRing(["x", "y", "z"])
    x, y, z = so3_ring.gens()
    zero = so3_ring.zero()
    base = BasePoissonAlgebra(
        so3_ring,
        [[zero, z, -y], [-z, zero, x], [y, -x, zero]],
    )
    casimir = x ** 2 + y ** 2 + z ** 2
    bad_der = GWPAData(base, (casimir,), (BaseDerivation.partial(so3_ring, "x"),))
    conditions = {v.condition for v in validate_gwpa(bad_der).violations}
    assert "poisson-derivation" in conditions
    hamiltonian = BaseDerivation.from_images(
        so3_ring, {"x": base.bracket(z, x), "y": base.bracket(z, y)}
    )
    off_centre = GWPAData(base, (x,), (hamiltonian,))
    conditions = {v.condition for v in validate_gwpa(off_centre).violations}
    assert conditions == {"central-parameter"}

    with pytest.raises(GwpaError):
        GWPAData(trivial, (H1,), (twisted, BaseDerivation.partial(ring, "H2")))
    foreign = PolyRing(["W"])
    with pytest.raises(GwpaError, match="^parameter polynomial lives over a different ring$"):
        GWPAData(trivial, (foreign.var("W"),), (twisted,))
    with pytest.raises(GwpaError, match="^derivation lives over a different ring$"):
        GWPAData(trivial, (H1,), (BaseDerivation.partial(foreign, "W"),))


def test_cross_constant_reads_the_whole_exponent_field():
    # p_1 = d/dH1 moves H1, which a_2 = H1^2 uses with exponent 2: a skip
    # that tested only the lowest bit of the field would miss this pair.
    ring = PolyRing(["H1", "H2"])
    H1, _ = ring.gens()
    data = GWPAData(
        BasePoissonAlgebra.trivial(ring),
        (H1, H1 ** 2),
        (BaseDerivation.partial(ring, "H1"), BaseDerivation.partial(ring, "H2")),
    )
    assert [str(v) for v in validate_gwpa(data).violations] == [
        "cross-constant[1, 2]: derivation 1 must annihilate parameter 2, got 2*H1"
    ]


_VALIDATION_BASES = (
    BasePoissonAlgebra.trivial(PolyRing(["H1", "H2", "H3"])),
    so3_based().base,
    heisenberg_based().base,
)


@st.composite
def _validation_data(draw):
    """Unchecked data of rank 1 to 4 whose parameters and derivation images
    are small sums of monomials with exponents up to 2, so every check can
    fail, p_i(a_j) meets exponents above 1, and derivation pairs occur
    linked (one moves a variable an image of the other uses) and commuting,
    linked and not commuting, and unlinked."""
    base = draw(st.sampled_from(_VALIDATION_BASES))
    ring = base.ring
    gens = ring.gens()
    monomials = [ring.one(), *gens, gens[0] ** 2, gens[0] * gens[1], gens[2] ** 2]

    def poly():
        terms = draw(
            st.lists(st.tuples(st.sampled_from(monomials), st.sampled_from([1, -1, 2])), max_size=2)
        )
        return sum((m * c for m, c in terms), ring.zero())

    rank = draw(st.integers(1, 4))
    a = tuple(poly() for _ in range(rank))
    partials: list[BaseDerivation] = []
    for _ in range(rank):
        if partials and draw(st.booleans()):  # a multiple commutes, linked or not
            scale = draw(st.sampled_from([-1, 2]))
            images = [image * scale for image in draw(st.sampled_from(partials)).images]
        else:
            images = [poly() for _ in gens]
        partials.append(BaseDerivation(ring, images))
    return GWPAData(base, a, partials)


@settings(max_examples=150, deadline=None)
@given(_validation_data())
def test_validation_matches_the_all_pairs_reference(data):
    assert validate_gwpa(data) == validation_all_pairs(data)


def test_p2n_parameters_live_over_the_family_ring():
    # so each derivation call and ring comparison in validation is an
    # identity test, not a comparison of the n variable names
    A = p2n(5)
    assert all(a.ring is A.base_ring for a in A.a)
    assert all(der.ring is A.base_ring for der in A.partials)


def test_univariate_family_constructor():
    A = univariate_family(["H1^2", "H2"], ["1", "2*H2"])
    assert A.rank == 2
    assert A.Y(1).bracket(A.X(1)) == A.scalar(2 * A.base_ring.var("H1"))
    with pytest.raises(GwpaError):
        univariate_family(["H2"], ["1"])
    with pytest.raises(GwpaError):
        univariate_family(["H1"], [])
    for a, message in (
        ([PolyRing(["W"]).var("W")], r"a_1 must live over PolyRing\(H1\)"),
        ([1], "a_1 must be a string or polynomial"),
        (["H1", "H1"], "a_2 must be univariate in H2, got H1"),
    ):
        with pytest.raises(GwpaError, match="^%s$" % message):
            univariate_family(a, ["1"] * len(a))
