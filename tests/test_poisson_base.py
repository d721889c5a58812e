"""Base Poisson structures: bracket matrices, Jacobi, derivations."""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import FrozenInstanceError

import pytest

import gwpa.engine
from gwpa.engine import GWPAData, _block_base, validate_gwpa
from gwpa.errors import (
    AmbientMismatchError,
    BracketMatrixError,
    GwpaError,
    JacobiViolationError,
)
from gwpa.gallery import gr_usl2, p2n
from gwpa.poisson import (
    BaseDerivation,
    BasePoissonAlgebra,
    derivations_commute,
    is_poisson_derivation,
    jacobi_check,
)
from gwpa.poly import Polynomial, PolyRing
from gwpa.quant import AffineSubstitution
from gwpa.specfile import render_algebra_spec, spec_from_gwpa

from oracles import derivation_chain_rule
from sampling import random_polynomial


def so3():
    """Brackets {x,y} = z, {y,z} = x, {z,x} = y."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    zero = ring.zero()
    matrix = [
        [zero, z, -y],
        [-z, zero, x],
        [y, -x, zero],
    ]
    return BasePoissonAlgebra(ring, matrix)


def test_trivial_bracket():
    ring = PolyRing(["H1"])
    algebra = BasePoissonAlgebra.trivial(ring)
    assert algebra.is_trivial
    H = ring.var("H1")
    assert algebra.bracket(H ** 3, H + 1).is_zero


def test_canonical_pair():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    algebra = BasePoissonAlgebra(ring, [[ring.zero(), ring.one()], [-ring.one(), ring.zero()]])
    assert algebra.bracket(x, y) == ring.one()
    assert algebra.bracket(x ** 2, y) == 2 * x
    assert algebra.bracket(x ** 2 * y, y) == 2 * x * y
    assert algebra.bracket(x, x ** 5).is_zero


def test_so3_bracket_values():
    algebra = so3()
    x, y, z = algebra.ring.gens()
    assert algebra.bracket(x, y) == z
    assert algebra.bracket(y, z) == x
    assert algebra.bracket(z, x) == y
    assert algebra.bracket(x ** 2, y) == 2 * x * z
    casimir = x ** 2 + y ** 2 + z ** 2
    for g in algebra.ring.gens():
        assert algebra.bracket(casimir, g).is_zero


def test_matrix_shape_and_antisymmetry_rejected():
    ring = PolyRing(["x", "y"])
    one = ring.one()
    zero = ring.zero()
    with pytest.raises(BracketMatrixError):
        BasePoissonAlgebra(ring, [[zero, one], [one, zero]])
    with pytest.raises(BracketMatrixError):
        BasePoissonAlgebra(ring, [[one, one], [-one, zero]])
    with pytest.raises(BracketMatrixError):
        BasePoissonAlgebra(ring, [[zero, one]])
    with pytest.raises(
        BracketMatrixError,
        match=r"^bracket matrix entries must be polynomials over PolyRing\(x, y\)$",
    ):
        BasePoissonAlgebra(ring, [[0, 1], [-1, 0]])


def _first_fault(matrix) -> str | None:
    """The fault that a scan of every entry meets first, row by row."""
    n = len(matrix)
    for j in range(n):
        if not matrix[j][j].is_zero:
            return "bracket matrix diagonal entry %d is nonzero: %s" % (j + 1, matrix[j][j])
        for k in range(j + 1, n):
            if matrix[j][k] != -matrix[k][j]:
                return "bracket matrix is not antisymmetric at (%d, %d)" % (j + 1, k + 1)
    return None


def _jacobiator(ring, matrix, i, j, k):
    """{x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}} from the
    dense matrix, with {x_a, f} the sum of {x_a, x_l} df/dx_l."""

    def bracket_with(a, f):
        return sum((matrix[a][l] * f.partial(x) for l, x in enumerate(ring.variables)), ring.zero())

    return bracket_with(i, matrix[j][k]) + bracket_with(j, matrix[k][i]) + bracket_with(k, matrix[i][j])


def test_dense_matrix_checks_match_a_scan_of_every_entry():
    """Only nonzero entries are compared and only triples through them are
    tried, yet a caller's matrix is refused for the fault, and fails Jacobi
    on the triple, that a scan of every entry meets first."""
    ring = PolyRing(["a", "b", "c", "d"])
    values = [ring.zero(), ring.one(), -ring.one(), ring.var("a"), ring.var("b") + 2]
    rng = random.Random(31)
    for _ in range(300):
        matrix = [[ring.zero()] * 4 for _ in range(4)]
        for j in range(4):
            for k in range(j + 1, 4):
                matrix[j][k] = rng.choice(values)
                matrix[k][j] = -matrix[j][k]
        for _ in range(rng.randint(0, 3)):
            matrix[rng.randrange(4)][rng.randrange(4)] = rng.choice(values)
        fault = _first_fault(matrix)
        if fault is not None:
            with pytest.raises(BracketMatrixError, match="^%s$" % re.escape(fault)):
                jacobi_check(ring, matrix)
            continue
        report = jacobi_check(ring, matrix)
        failing = [
            (i + 1, j + 1, k + 1)
            for i, j, k in itertools.combinations(range(4), 3)
            if not _jacobiator(ring, matrix, i, j, k).is_zero
        ]
        assert report.failing_triple == (failing[0] if failing else None)
        if report.holds:
            assert BasePoissonAlgebra(ring, matrix).matrix == tuple(map(tuple, matrix))
        else:
            assert report.jacobiator == _jacobiator(ring, matrix, *(x - 1 for x in failing[0]))


def test_jacobi_violation_detected():
    ring = PolyRing(["x", "y", "z"])
    x = ring.var("x")
    y = ring.var("y")
    zero = ring.zero()
    matrix = [
        [zero, y, zero],
        [-y, zero, x],
        [zero, -x, zero],
    ]
    report = jacobi_check(ring, matrix)
    assert not report.holds
    assert report.failing_triple == (1, 2, 3)
    assert report.jacobiator == -x
    with pytest.raises(JacobiViolationError):
        BasePoissonAlgebra(ring, matrix)


def test_jacobi_check_skips_an_all_zero_matrix(monkeypatch):
    calls = []
    original = BasePoissonAlgebra.bracket

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(BasePoissonAlgebra, "bracket", counted)
    ring = PolyRing(["H%d" % i for i in range(1, 61)])
    assert jacobi_check(ring, [[ring.zero()] * 60 for _ in range(60)]).holds
    assert calls == []  # 3 * C(60, 3) = 102,660 calls if every triple were tried


def test_jacobi_violation_found_among_central_variables():
    # The violating block of test_jacobi_violation_detected, with central
    # variables around and between its variables x, y, z.
    ring = PolyRing(["c1", "x", "c2", "y", "z", "c3"])
    x, y = ring.var("x"), ring.var("y")
    matrix = [[ring.zero()] * 6 for _ in range(6)]
    for j, k, entry in ((1, 3, y), (3, 4, x)):
        matrix[j][k], matrix[k][j] = entry, -entry
    report = jacobi_check(ring, matrix)
    assert (report.holds, report.failing_triple, report.jacobiator) == (False, (2, 4, 5), -x)
    with pytest.raises(JacobiViolationError):
        BasePoissonAlgebra(ring, matrix)


def test_base_bracket_refuses_a_polynomial_over_another_ring():
    algebra = so3()
    x = algebra.ring.var("x")
    for other in (PolyRing(["w"]), PolyRing(["x", "y", "w"])):
        w = other.var("w")
        for f, g in ((x, w), (w, x)):
            with pytest.raises(AmbientMismatchError):
                algebra.bracket(f, g)


def test_bracket_axioms_randomized():
    algebra = so3()
    ring = algebra.ring
    rng = random.Random(11)
    for _ in range(50):
        f = random_polynomial(ring, rng, 2, 2)
        g = random_polynomial(ring, rng, 2, 2)
        h = random_polynomial(ring, rng, 2, 2)
        assert algebra.bracket(f, g) == -algebra.bracket(g, f)
        assert algebra.bracket(f, g * h) == (
            algebra.bracket(f, g) * h + g * algebra.bracket(f, h)
        )
        jacobiator = (
            algebra.bracket(f, algebra.bracket(g, h))
            + algebra.bracket(g, algebra.bracket(h, f))
            + algebra.bracket(h, algebra.bracket(f, g))
        )
        assert jacobiator.is_zero
        for field, x in zip(algebra.hamiltonians, ring.gens()):
            assert field(f) == algebra.bracket(f, x)


def test_derivation_call_and_chain_rule():
    ring = PolyRing(["H1", "H2"])
    H1, H2 = ring.gens()
    der = BaseDerivation.from_images(ring, {"H1": H2, "H2": ring.one()})
    assert der(H1 ** 2) == 2 * H1 * H2
    assert der(H1 * H2) == H2 ** 2 + H1
    assert der(ring.const(5)).is_zero
    assert der.image_of("H1") == H2
    assert BaseDerivation.partial(ring, "H1")(H1 ** 3) == 3 * H1 ** 2
    assert BaseDerivation.zero(ring).is_zero
    foreign = PolyRing(["W"]).one()
    with pytest.raises(GwpaError, match="^derivation image lives in a different ring$"):
        BaseDerivation.from_images(ring, {"H1": foreign})
    with pytest.raises(
        GwpaError, match="^derivation applied to polynomial over a different ring$"
    ):
        der(foreign)


def so3_hamiltonian():
    """The derivation {z, -} of the so(3) base, as generator images."""
    algebra = so3()
    x, y, z = algebra.ring.gens()
    return BaseDerivation.from_images(
        algebra.ring, {"x": algebra.bracket(z, x), "y": algebra.bracket(z, y)}
    )


@pytest.mark.parametrize(
    "ders",
    [p2n(2).partials, gr_usl2().partials, (so3_hamiltonian(),)],
    ids=["p2n_2", "gr_usl2", "so3"],
)
def test_memoized_derivation_matches_chain_rule(ders):
    rng = random.Random(20)
    for der in ders:
        for _ in range(25):
            fresh = BaseDerivation(der.ring, der.images)  # empty memo
            f = random_polynomial(der.ring, rng, degree=5, terms=4)
            expected = derivation_chain_rule(fresh, f)
            assert fresh(f) == expected  # cold
            assert fresh(f) == expected  # warm
            assert der(f) == expected  # memo shared by every sample


def test_memo_leaves_equality_and_hash_alone():
    ring = PolyRing(["H1", "H2"])
    H1, H2 = ring.gens()
    f = H1 ** 3 * H2 + H2 ** 2
    cases = [
        (
            lambda: BaseDerivation.from_images(ring, {"H1": H2, "H2": H1 ** 2}),
            3 * H1 ** 2 * H2 ** 2 + H1 ** 5 + 2 * H1 ** 2 * H2,
            BaseDerivation.from_images(ring, {"H1": H2}),
        ),
        (
            lambda: AffineSubstitution.from_map(ring, {"H1": H2 + 1, "H2": H1}),
            (H2 + 1) ** 3 * H1 + H1 ** 2,
            AffineSubstitution.from_map(ring, {"H1": H2 + 1}),
        ),
    ]
    for build, image, other in cases:
        used, unused = build(), build()
        assert used(f) == image
        assert used == unused
        assert hash(used) == hash(unused)
        assert len({used, unused}) == 1
        assert used != other


def test_base_algebra_is_frozen_and_compares_by_value():
    ring = PolyRing(["H1"])
    algebra = BasePoissonAlgebra.trivial(ring)
    with pytest.raises(FrozenInstanceError):
        algebra.matrix = ((ring.var("H1"),),)  # would skip the Jacobi check
    assert algebra.matrix == ((ring.zero(),),) and algebra.is_trivial

    listed = so3()
    tupled = BasePoissonAlgebra(listed.ring, tuple(map(tuple, listed.matrix)))
    assert isinstance(listed.matrix, tuple)
    assert len(listed.hamiltonians) == 3  # the cache takes no part in == or hash
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != BasePoissonAlgebra.trivial(listed.ring)


def test_derivation_arithmetic_and_embedding():
    ring = PolyRing(["H1"])
    H = ring.var("H1")
    der = BaseDerivation.from_images(ring, {"H1": H})
    assert der.negated()(H) == -H
    assert der.scaled(ring.const(2))(H) == 2 * H
    big = PolyRing(["H1", "Z"])
    lifted = der.embedded(big)
    assert lifted(big.var("H1") ** 2) == 2 * big.var("H1") ** 2
    assert lifted(big.var("Z")).is_zero


def test_poisson_derivation_predicate():
    algebra = so3()
    ring = algebra.ring
    d_x = BaseDerivation.partial(ring, "x")
    assert not is_poisson_derivation(algebra, d_x)
    trivial = BasePoissonAlgebra.trivial(ring)
    assert is_poisson_derivation(trivial, d_x)
    x, y, z = ring.gens()
    hamiltonian = BaseDerivation.from_images(
        ring,
        {
            "x": algebra.bracket(z, x),
            "y": algebra.bracket(z, y),
            "z": algebra.bracket(z, z),
        },
    )
    assert is_poisson_derivation(algebra, hamiltonian)
    foreign = BaseDerivation.partial(PolyRing(["W"]), "W")
    with pytest.raises(
        GwpaError, match="^derivation and Poisson algebra live over different rings$"
    ):
        is_poisson_derivation(algebra, foreign)


def test_derivations_commute():
    ring = PolyRing(["H1", "H2"])
    d1 = BaseDerivation.partial(ring, "H1")
    d2 = BaseDerivation.partial(ring, "H2")
    scaled = BaseDerivation.from_images(ring, {"H1": ring.var("H1")})
    assert derivations_commute([d1, d2])
    assert not derivations_commute([d1, scaled])
    foreign = BaseDerivation.partial(PolyRing(["W"]), "W")
    with pytest.raises(GwpaError, match="^derivations live over different rings$"):
        derivations_commute([d1, foreign])


def test_derivation_constructor_refuses_malformed_images():
    ring = PolyRing(["x", "y", "z"])
    x, zero = ring.var("x"), ring.zero()
    foreign = PolyRing(["a", "b", "c"])
    u = foreign.var("b") * foreign.var("c")  # packed like y*z, which x would map to
    with pytest.raises(AmbientMismatchError):
        BaseDerivation(ring, (u, zero, zero))
    with pytest.raises(GwpaError, match=r"^expected 3 derivation images, got 1$"):
        BaseDerivation(ring, (x,))  # not a shorthand for (x, 0, 0)
    with pytest.raises(GwpaError, match=r"^derivation images must be polynomials, got 0$"):
        BaseDerivation(ring, (x, 0, 0))
    with pytest.raises(GwpaError, match=r"^derivation images must be polynomials, got 0$"):
        BaseDerivation.from_images(ring, {"y": 0})  # one check serves both constructors
    assert BaseDerivation(ring, (x, zero, zero)) == BaseDerivation.from_images(ring, {"x": x})


def test_validation_checks_no_pair_of_unlinked_derivations(monkeypatch):
    """The p_i of ``p2n(n)`` move one variable each by a constant, so no
    p_i moves a variable that an image of another uses, and
    ``validate_gwpa`` makes no ``derivations_commute`` call and reads no
    ``is_constant``.  Checking every pair made C(n, 2) calls (190, 780 and
    3,160) and read ``is_constant`` 760, 3,120 and 12,640 times."""
    algebras = [p2n(n) for n in (20, 40, 80)]
    calls, reads = [], []
    commute = gwpa.engine.derivations_commute
    monkeypatch.setattr(
        gwpa.engine, "derivations_commute", lambda ders: calls.append(1) or commute(ders)
    )
    is_constant = Polynomial.is_constant.fget
    monkeypatch.setattr(
        Polynomial, "is_constant", property(lambda p: reads.append(1) or is_constant(p))
    )
    counts = []
    for A in algebras:
        calls.clear()
        reads.clear()
        assert validate_gwpa(A).ok
        counts.append((len(calls), len(reads)))
    assert counts == [(0, 0)] * 3


def _random_images(ring, rng):
    return [
        random_polynomial(ring, rng, 2, 2) if rng.random() < 0.5 else ring.zero()
        for _ in ring.variables
    ]


@pytest.mark.parametrize("bracket", ["zero", "so3"])
def test_sparse_base_data_matches_its_dense_input(bracket):
    """The dense views equal the dense input, and the same data built
    through the library's sparse routes compares, hashes and exports
    alike."""
    if bracket == "zero":
        ring = PolyRing(["x", "y", "z", "w"])
        matrix = [[ring.zero()] * 4 for _ in range(4)]
        internal_base = BasePoissonAlgebra.trivial(ring)
    else:
        ring = so3().ring
        matrix = [list(row) for row in so3().matrix]
        internal_base = _block_base(ring, [(so3(), {})])
    base = BasePoissonAlgebra(ring, matrix)
    assert base.matrix == tuple(map(tuple, matrix))
    assert base == internal_base and hash(base) == hash(internal_base)
    for column, field in zip(zip(*matrix), internal_base.hamiltonians):
        dense = BaseDerivation(ring, column)
        assert dense == field and hash(dense) == hash(field)
    rng = random.Random(27 if bracket == "zero" else 28)
    for _ in range(25):
        images = _random_images(ring, rng)
        dense = BaseDerivation(ring, images)
        named = {name: img for name, img in zip(ring.variables, images) if not img.is_zero}
        built = [
            BaseDerivation.from_images(ring, named),
            dense.negated().negated(),
            dense.scaled(ring.one()),
            dense.embedded(ring),
        ]
        assert dense.images == tuple(images)
        for other in built:
            assert other == dense and hash(other) == hash(dense)
            assert other.images == tuple(images)
        a = random_polynomial(ring, rng, 2, 2)
        text = render_algebra_spec(spec_from_gwpa(GWPAData(base, (a,), (dense,))))
        doc = json.loads(text)
        assert doc["bracket"] == [[str(entry) for entry in row] for row in matrix]
        assert doc["partials"] == [[str(image) for image in images]]
        assert text == render_algebra_spec(
            spec_from_gwpa(GWPAData(internal_base, (a,), (built[0],)))
        )
