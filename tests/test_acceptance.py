"""Acceptance gate: ten exact criteria, one pass/fail line each.

Every check is zero tolerance.  Randomized criteria use fixed seeds, so a
failure reproduces exactly; each test prints a single summary line naming
its criterion before asserting.
"""

from __future__ import annotations

import pathlib
import random
from fractions import Fraction

from gwpa.centre import centre_component, nonzero_alphas, poisson_ideal_closure
from gwpa.cli import main as cli_main
from gwpa.engine import (
    apply_sI,
    from_ore_data,
    gwpa_bracket,
    torus_apply,
)
from gwpa.gallery import gr_heisenberg, gr_usl2, p2n, univariate_family
from gwpa.poisson import BaseDerivation, BasePoissonAlgebra
from gwpa.poly import PolyRing, monomials_up_to
from gwpa.quant import gr_correspondence_check, usl2_gwa, weyl_gwa
from gwpa.simplicity import simplicity_check
from gwpa.specfile import parse_algebra_spec, render_algebra_spec, spec_from_gwpa

from oracles import bracket_oracle_graded
from sampling import random_element, random_polynomial


def GALLERY():
    return [
        ("p2n(1)", p2n(1)),
        ("p2n(2)", p2n(2)),
        ("gr_usl2", gr_usl2()),
        ("gr_heisenberg(1)", gr_heisenberg(1)),
    ]


def report(number: int, title: str, ok: bool, detail: str = ""):
    line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, title)
    if detail and not ok:
        line += " [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_bracket_axioms():
    failures = []
    rng = random.Random(1001)
    for name, A in GALLERY():
        for k in range(200):
            u = random_element(A, rng, bound=4)
            v = random_element(A, rng, bound=4)
            w = random_element(A, rng, bound=4)
            uv = u.bracket(v)
            if uv != -(v.bracket(u)):
                failures.append("%s antisymmetry #%d" % (name, k))
            if u.bracket(v * w) != uv * w + v * u.bracket(w):
                failures.append("%s Leibniz-right #%d" % (name, k))
            if (u * v).bracket(w) != u * v.bracket(w) + u.bracket(w) * v:
                failures.append("%s Leibniz-left #%d" % (name, k))
            jac = (
                u.bracket(v.bracket(w))
                + v.bracket(w.bracket(u))
                + w.bracket(uv)
            )
            if not jac.is_zero:
                failures.append("%s Jacobi #%d" % (name, k))
    report(
        1,
        "bracket axioms on 200 random triples per gallery algebra",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_02_defining_relations():
    failures = []
    for name, A in GALLERY():
        ring = A.base_ring
        for i in range(1, A.rank + 1):
            der = A.partials[i - 1]
            expected = A.scalar(der(A.a[i - 1]))
            if A.Y(i).bracket(A.X(i)) != expected:
                failures.append("%s {Y%d,X%d}" % (name, i, i))
            for gname in ring.variables:
                d = ring.var(gname)
                if A.X(i).bracket(A.scalar(d)) != A.scalar(-der(d)) * A.X(i):
                    failures.append("%s {X%d,%s}" % (name, i, gname))
                if A.Y(i).bracket(A.scalar(d)) != A.scalar(der(d)) * A.Y(i):
                    failures.append("%s {Y%d,%s}" % (name, i, gname))
            for j in range(1, A.rank + 1):
                if j == i:
                    continue
                for left in (A.X(i), A.Y(i)):
                    for right in (A.X(j), A.Y(j)):
                        if not left.bracket(right).is_zero:
                            failures.append("%s cross %d,%d" % (name, i, j))
    report(
        2,
        "defining relations hold symbolically on every gallery algebra",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_03_oracle_equivalence():
    failures = []
    rng = random.Random(1003)
    for name, A in GALLERY():
        checked = 0
        cases = []
        for _ in range(170):
            lam = random_polynomial(A.base_ring, rng, 3, 2)
            alpha = tuple(rng.randint(-2, 2) for _ in range(A.rank))
            cases.append((lam, alpha))
        i = rng.randint(1, A.rank)
        one = A.base_ring.one()
        cases.append((one, tuple(1 if j == i - 1 else 0 for j in range(A.rank))))
        cases.append((one, tuple(-1 if j == i - 1 else 0 for j in range(A.rank))))
        for lam, alpha in cases:
            target = A.element({alpha: lam})
            d = random_polynomial(A.base_ring, rng, 3, 2)
            if bracket_oracle_graded(A, d, lam, alpha) != gwpa_bracket(
                A.scalar(d), target
            ):
                failures.append("%s base case %r" % (name, alpha))
            checked += 1
            i = rng.randint(1, A.rank)
            for gen in (A.X(i), A.Y(i)):
                if bracket_oracle_graded(A, gen, lam, alpha) != gwpa_bracket(
                    gen, target
                ):
                    failures.append("%s shift case %r" % (name, alpha))
                checked += 1
        assert checked >= 500
    report(
        3,
        "closed graded formulas match the bracket on 500+ instances per algebra",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_04_adjoined_central_parameters():
    ring = PolyRing(["Z"])
    D = BasePoissonAlgebra.trivial(ring)
    d_z = BaseDerivation.partial(ring, "Z")
    zero_der = BaseDerivation.zero(ring)
    failures = []
    for label, partial, alpha in (
        ("alpha=1", d_z, ring.one()),
        ("alpha=0", zero_der, ring.zero()),
        ("alpha=Z", d_z, ring.var("Z")),
    ):
        realization = from_ore_data(D, [partial], [alpha])
        A = realization.algebra
        H = A.base_ring.var(realization.new_vars[0])
        X, Y = A.X(1), A.Y(1)
        if not (X * Y - A.scalar(H)).is_zero:
            failures.append("%s product" % label)
        for g in A.generators():
            residue = X.bracket(g) * Y + X * Y.bracket(g) - A.scalar(H).bracket(g)
            if not residue.is_zero:
                failures.append("%s bracket vs %s" % (label, g))
    report(
        4,
        "adjoined parameters satisfy X*Y = H with consistent brackets",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_05_centre_reproduction():
    failures = []
    A = p2n(2)
    comp = centre_component(A, (0, 0), 6)
    if comp.basis != (A.base_ring.one(),):
        failures.append("p2n(2) constants %r" % (comp.basis,))
    for alpha in nonzero_alphas(2, 4):
        if not centre_component(A, alpha, 6).is_zero:
            failures.append("p2n(2) degree %r not zero" % (alpha,))
    B = gr_usl2()
    C = B.base_ring.var("C")
    H = B.base_ring.var("H")
    comp = centre_component(B, (0,), 6)
    if comp.basis != tuple(C ** k for k in range(7)):
        failures.append("gr_usl2 centre mismatch")
    if B.X(1) * B.Y(1) + B.scalar(H ** 2) != B.scalar(C):
        failures.append("gr_usl2 C != XY + H^2")
    report(
        5,
        "centre components match the expected bases at degree 6",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_06_simplicity_verdicts():
    failures = []

    for n in (1, 2, 3):
        if simplicity_check(p2n(n)).overall != "holds":
            failures.append("p2n(%d)" % n)

    squared = simplicity_check(univariate_family(["H1^2"], ["1"]))
    if squared.overall != "fails" or squared.condition2.status != "fails":
        failures.append("a=H^2 verdict")
    elif squared.condition2.witness != univariate_family(
        ["H1^2"], ["1"]
    ).base_ring.var("H1"):
        failures.append("a=H^2 witness")

    if simplicity_check(univariate_family(["H1^2 - H1"], ["1"])).overall != "holds":
        failures.append("a=H(H-1)")

    usl2 = simplicity_check(gr_usl2())
    if usl2.overall != "fails" or usl2.condition3.status != "fails":
        failures.append("gr_usl2 verdict")
    elif usl2.condition3.witness != gr_usl2().base_ring.var("C"):
        failures.append("gr_usl2 witness")

    heis = simplicity_check(gr_heisenberg(1))
    if heis.overall != "fails" or heis.condition1.status != "fails":
        failures.append("gr_heisenberg verdict")
    elif heis.condition1.witness != gr_heisenberg(1).base_ring.var("Z"):
        failures.append("gr_heisenberg witness")

    report(
        6,
        "five simplicity verdicts with the stated witnesses",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_07_ideal_closures():
    failures = []
    A = p2n(1)
    if not poisson_ideal_closure(A, [A.X(1)], 2).contains_unit:
        failures.append("p2n(1) closure misses the unit")
    B = univariate_family(["H1^2"], ["1"])
    if poisson_ideal_closure(B, [B.X(1)], 4).contains_unit:
        failures.append("a=H^2 closure found a false unit")
    report(
        7,
        "ideal closures separate the simple and non-simple cases",
        not failures,
        "; ".join(failures[:2]),
    )


def _filtered_monomials(A, bound):
    """All basis monomials H^e v_alpha of filtration degree <= bound."""
    ring = A.ring
    out = []
    span = 2 * bound
    alphas = [(0,) * A.rank] + nonzero_alphas(A.rank, span)
    for alpha in alphas:
        weight = Fraction(sum(d * abs(k) for d, k in zip(A.degrees, alpha)), 2)
        if weight > bound:
            continue
        room = int(bound - weight)
        for exps in monomials_up_to(ring, room):
            if sum(w * e for w, e in zip(A.weights, exps)) <= room:
                out.append(A.element({alpha: ring.monomial(exps, 1)}))
    return out


def test_criterion_08_graded_correspondence():
    failures = []

    weyl1 = weyl_gwa(1)
    monos = _filtered_monomials(weyl1, 4)
    if len(monos) != 45:
        failures.append("A_1 monomial count %d" % len(monos))
    pairs = [
        (monos[i], monos[j])
        for i in range(len(monos))
        for j in range(i, len(monos))
    ]
    outcome = gr_correspondence_check(weyl1, pairs)
    if outcome.predicted != p2n(1):
        failures.append("A_1 predicted algebra")
    if not outcome.all_match:
        bad = [p for p in outcome.pairs if not p.matches][:2]
        failures.append(
            "A_1 mismatches %s" % "; ".join("(%s, %s)" % (p.left, p.right) for p in bad)
        )

    weyl2 = weyl_gwa(2)
    monos2 = _filtered_monomials(weyl2, 4)
    if len(monos2) != 495:
        failures.append("A_2 monomial count %d" % len(monos2))
    pairs2 = [
        (monos2[i], monos2[j])
        for i in range(len(monos2))
        for j in range(i, len(monos2))
    ]
    outcome2 = gr_correspondence_check(weyl2, pairs2)
    if outcome2.predicted != p2n(2):
        failures.append("A_2 predicted algebra")
    if not outcome2.all_match:
        failures.append("A_2 has mismatched pairs")

    sl2 = usl2_gwa()
    named = [
        sl2.X(1),
        sl2.Y(1),
        sl2.scalar(sl2.ring.var("H")),
        sl2.scalar(sl2.ring.var("C")),
    ]
    outcome3 = gr_correspondence_check(
        sl2, [(u, v) for u in named for v in named]
    )
    if outcome3.predicted != gr_usl2() or not outcome3.all_match:
        failures.append("usl2 named pairs")

    if weyl1.Y(1).commutator(weyl1.X(1)) != weyl1.one():
        failures.append("[Y,X] != 1")
    P = p2n(1)
    if P.Y(1).bracket(P.X(1)) != P.one():
        failures.append("{Y,X} != 1")
    twoH = sl2.scalar(2 * sl2.ring.var("H"))
    if sl2.X(1).commutator(sl2.Y(1)) != twoH:
        failures.append("[X,Y] != 2H")
    G = gr_usl2()
    if G.X(1).bracket(G.Y(1)) != G.scalar(2 * G.base_ring.var("H")):
        failures.append("{X,Y} != 2H")

    report(
        8,
        "graded commutators reproduce the Poisson brackets (A_1, A_2, usl2)",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_09_symmetries_respect_structure():
    failures = []
    rng = random.Random(1009)
    for name, A in GALLERY():
        ones = [1] * A.rank
        for k in range(200):
            u = random_element(A, rng, bound=3)
            v = random_element(A, rng, bound=3)
            indices = [i for i in range(1, A.rank + 1) if rng.random() < 0.6] or [1]
            target, mu = apply_sI(A, indices, u)
            _, mv = apply_sI(A, indices, v)
            if apply_sI(A, indices, u * v)[1] != mu * mv:
                failures.append("%s sI mul #%d" % (name, k))
            if apply_sI(A, indices, u.bracket(v))[1] != mu.bracket(mv):
                failures.append("%s sI bracket #%d" % (name, k))
            if apply_sI(target, indices, mu)[1] != u:
                failures.append("%s sI involution #%d" % (name, k))
            lam = [rng.choice([2, 3, -1, Fraction(1, 2)]) for _ in range(A.rank)]
            tu = torus_apply(u, lam)
            tv = torus_apply(v, lam)
            if torus_apply(u * v, lam) != tu * tv:
                failures.append("%s torus mul #%d" % (name, k))
            if torus_apply(u.bracket(v), lam) != tu.bracket(tv):
                failures.append("%s torus bracket #%d" % (name, k))
            if torus_apply(u, ones) != u:
                failures.append("%s torus identity #%d" % (name, k))
    report(
        9,
        "swap and torus maps commute with mul and bracket on 200 pairs each",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_10_determinism_and_round_trip(capsys, tmp_path):
    failures = []
    commands = [
        ["simple", "gr_usl2", "--format", "json"],
        ["centre", "gr_usl2", "--degree", "5"],
        ["bracket", "p2n_2", "X1*Y2", "H1*H2"],
        ["quantize-check", "weyl_1", "--format", "json"],
        ["gallery", "usl2"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        if runs[0] != runs[1] or runs[0][0] != 0:
            failures.append("unstable: %s" % " ".join(argv))

    spec_dir = pathlib.Path(__file__).resolve().parent.parent / "specs"
    for path in sorted(spec_dir.glob("*.json")):
        text = path.read_text()
        spec = parse_algebra_spec(text)
        if render_algebra_spec(spec) != text:
            failures.append("round-trip: %s" % path.name)
        if parse_algebra_spec(render_algebra_spec(spec)) != spec:
            failures.append("reparse: %s" % path.name)

    exported = spec_from_gwpa(univariate_family(["H1^2 - H1"], ["1"]))
    rendered = render_algebra_spec(exported)
    if parse_algebra_spec(rendered) != exported:
        failures.append("export round-trip")
    path = tmp_path / "family.json"
    path.write_text(rendered)
    code = cli_main(["validate", str(path)])
    capsys.readouterr()
    if code != 0:
        failures.append("validate exported spec")

    report(
        10,
        "CLI output is byte-stable and documents round-trip",
        not failures,
        "; ".join(failures[:3]),
    )
