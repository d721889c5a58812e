"""The four benchmark workloads: seeded inputs, items and answer checks.

``build(name, seed, tiny)`` returns a fresh list of items.  Building makes
new algebra objects, so the library's per-algebra caches start cold on
every pass and every pass does the same work.  Inputs depend only on the
seed (``random.Random`` seeded with a string is independent of the hash
seed).  Each item has a ``run`` callable, the timed unit of user work,
and a ``check`` callable that renders the answer for the digest and runs
the item's self-checks outside the timed region.

Only the public API of gwpa is used, and always through module attributes
(``gwpa.cli.main``, ``gwpa.gr_correspondence_check`` ...), so the tracer's
rebinding reaches every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gwpa
import gwpa.cli

@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, bool]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _rational(rng: random.Random) -> Fraction:
    """A small nonzero rational, an integer seven times in ten."""
    numerator = rng.choice((-3, -2, -1, 1, 2, 3))
    if rng.random() < 0.3:
        return Fraction(numerator, rng.randint(2, 3))
    return Fraction(numerator)


# -- gr-sweep ----------------------------------------------------------------


def _filtered_monomials(A, bound: int) -> list:
    """Every basis monomial H^e v_alpha of filtration degree at most bound."""
    ring = A.ring
    twice = 2 * bound
    out = []
    for alpha in itertools.product(range(-twice, twice + 1), repeat=A.rank):
        weight2 = sum(d * abs(k) for d, k in zip(A.degrees, alpha))
        if weight2 > twice:
            continue
        room = (twice - weight2) // 2
        for exps in itertools.product(range(room + 1), repeat=ring.nvars):
            if sum(w * e for w, e in zip(A.weights, exps)) <= room:
                out.append(A.element({alpha: ring.monomial(exps, 1)}))
    return out


def _render_pair(p) -> str:
    return " ; ".join(
        str(x)
        for x in (
            p.left, p.right, p.left_degree, p.right_degree, p.commutator,
            p.commutator_degree, p.expected_degree, p.degree_drops,
            p.graded_bracket, p.predicted_bracket, p.matches,
        )
    )


def _gr_item(label, A, pairs) -> Item:
    def run():
        return gwpa.gr_correspondence_check(A, pairs)

    def check(report):
        ok = report.all_match and len(report.pairs) == len(pairs)
        text = "\n".join(_render_pair(p) for p in report.pairs)
        return "all_match=%s\n%s" % (report.all_match, text), ok

    return Item(label, run, check)


def build_gr_sweep(seed: int, tiny: bool) -> list[Item]:
    """Batches of random monomial pairs through the correspondence check.

    The pairs come from the 495 monomials of weyl_gwa(2) at filtration
    bound 4 and the 35 of usl2_gwa() (weights 2 and 1, so half-integer
    degrees).  Monomials repeat across the pairs of a batch and across
    batches, so the algebra's substitution caches hit.
    """
    rng = _rng("gr-sweep", seed)
    weyl = gwpa.weyl_gwa(2)
    usl2 = gwpa.usl2_gwa()
    weyl_monos = _filtered_monomials(weyl, 4)
    usl2_monos = _filtered_monomials(usl2, 4)
    batch = 5 if tiny else 25
    plan = [("weyl2", weyl, weyl_monos)] * (3 if tiny else 100)
    plan += [("usl2", usl2, usl2_monos)] * (2 if tiny else 40)
    rng.shuffle(plan)
    items = []
    for k, (name, A, monos) in enumerate(plan):
        pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(batch)]
        items.append(_gr_item("%s#%d" % (name, k), A, pairs))
    return items


# -- closure -----------------------------------------------------------------

# The three baseline generator sets (algebra, bound, generators).  At the
# bounds 6, 7 and 10 that the baseline timings use, one closure takes 1 to
# 3 s and a run holds too few repetitions to be steady; these bounds keep
# each behaviour: Z overflows, H1^2 finds a unit and stops early, C
# explores the whole bounded span.
_CLOSURE_FIXED = (
    ("gr_heisenberg_2", 4, ("Z",)),
    ("p2n_2", 4, ("H1^2",)),
    ("gr_usl2", 6, ("C",)),
)

# Generator templates at small bounds; {c} is a seeded nonzero rational.
# The shapes are fixed and each is drawn many times, so the cost of a pass
# barely depends on the seed.
_CLOSURE_TEMPLATES = (
    ("gr_heisenberg_1", 4, ("H1 + {c}*Z^2",)),
    ("gr_heisenberg_1", 5, ("Z^2 + {c}*H1*Z",)),
    ("gr_usl2", 4, ("H^2 + {c}*C",)),
    ("gr_usl2", 4, ("C*H + {c}*X1",)),
    ("gr_usl2", 6, ("C^2 + {c}",)),
    ("p2n_2", 4, ("H1*H2 + {c}*X2",)),
    ("p2n_2", 4, ("X1*Y2 + {c}*H1",)),
    ("p2n_1", 6, ("H1^3 + {c}*X1",)),
    ("gr_heisenberg_2", 3, ("Z^2 + {c}*H1", "X2*Z + {c}")),
)

_CLOSURE_TINY = (
    ("p2n_1", 6, ("H1^3 + {c}*X1",)),
    ("gr_heisenberg_1", 4, ("H1 + {c}*Z^2",)),
)


def _gallery_algebra(token: str):
    family, _, n = token.rpartition("_")
    if token == "gr_usl2":
        return gwpa.gr_usl2()
    if family == "p2n":
        return gwpa.p2n(int(n))
    if family == "gr_heisenberg":
        return gwpa.gr_heisenberg(int(n))
    raise ValueError("unknown algebra %r" % token)


def _closure_item(label, A, gens, bound) -> Item:
    def run():
        return gwpa.poisson_ideal_closure(A, gens, bound)

    def check(report):
        lines = [
            "contains_unit=%s" % report.contains_unit,
            "dimension=%d" % len(report.basis),
            "overflow=%d" % report.overflow,
            "stopped_early=%s" % report.stopped_early,
        ]
        lines.extend(str(u) for u in report.basis)
        ok = (
            report.bound == bound
            and report.stopped_early <= report.contains_unit
            and all(u.total_degree <= bound for u in report.basis)
        )
        return "\n".join(lines), ok

    return Item(label, run, check)


def build_closure(seed: int, tiny: bool) -> list[Item]:
    """Bounded Poisson ideal closures: the three baseline generator sets
    plus eleven seeded instances of each template.  Early stop (p2n_2,
    H1^2), full exploration (gr_usl2, C) and overflow (gr_heisenberg_2, Z)
    are all present."""
    rng = _rng("closure", seed)
    cases = [] if tiny else list(_CLOSURE_FIXED)
    for token, bound, templates in _CLOSURE_TINY if tiny else _CLOSURE_TEMPLATES * 11:
        gens = tuple(t.format(c=_rational(rng)).replace("+ -", "- ")
                     for t in templates)
        cases.append((token, bound, gens))
    rng.shuffle(cases)
    items = []
    for token, bound, texts in cases:
        A = _gallery_algebra(token)
        gens = [gwpa.parse_element(text, A) for text in texts]
        label = "%s --degree %d %s" % (token, bound, " ".join(texts))
        items.append(_closure_item(label, A, gens, bound))
    return items


# -- axioms ------------------------------------------------------------------


def so3_based():
    """Rank-1 algebra over the so(3) Lie-Poisson bracket with the Casimir
    x^2 + y^2 + z^2 as parameter and a Hamiltonian derivation."""
    ring = gwpa.PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    zero = ring.zero()
    base = gwpa.BasePoissonAlgebra(ring, [[zero, z, -y], [-z, zero, x], [y, -x, zero]])
    hamiltonian = gwpa.BaseDerivation.from_images(
        ring, {"x": base.bracket(z, x), "y": base.bracket(z, y)}
    )
    return gwpa.GWPAData.checked(base, (x ** 2 + y ** 2 + z ** 2,), (hamiltonian,))


def _random_polynomial(ring, rng, degree: int, terms: int):
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(tuple(exps), _rational(rng))
    return out


def _random_element(A, rng, bound: int = 4, terms: int = 2, window: int = 2):
    """A nonzero element of filtration weight at most ``bound``."""
    while True:
        data: dict = {}
        for _ in range(terms):
            alpha = tuple(rng.randint(-window, window) for _ in range(A.rank))
            size = sum(abs(k) for k in alpha)
            if size > bound:
                continue
            poly = _random_polynomial(A.base_ring, rng, min(bound - size, 3), 2)
            data[alpha] = data[alpha] + poly if alpha in data else poly
        u = A.element({a: p for a, p in data.items() if not p.is_zero})
        if not u.is_zero:
            return u


def _axiom_item(label, u, v, w) -> Item:
    def run():
        uv = u.bracket(v)
        uw = u.bracket(w)
        vw = v.bracket(w)
        antisymmetry = uv == -(v.bracket(u))
        leibniz_right = u.bracket(v * w) == uv * w + v * uw
        leibniz_left = (u * v).bracket(w) == u * vw + uw * v
        jacobi = u.bracket(vw) + v.bracket(w.bracket(u)) + w.bracket(uv)
        return uv, uw, vw, antisymmetry, leibniz_right, leibniz_left, jacobi

    def check(result):
        uv, uw, vw, anti, right, left, jacobi = result
        flags = (anti, right, left, jacobi.is_zero)
        text = "%s\n%s\n%s\n%s" % (uv, uw, vw, " ".join(str(f) for f in flags))
        return text, all(flags)

    return Item(label, run, check)


def build_axioms(seed: int, tiny: bool) -> list[Item]:
    """Random triples (bound 4) checked for antisymmetry, both Leibniz
    rules and Jacobi on three gallery algebras and the so(3)-based one."""
    rng = _rng("axioms", seed)
    algebras = [
        ("p2n_2", gwpa.p2n(2)),
        ("gr_usl2", gwpa.gr_usl2()),
        ("gr_heisenberg_2", gwpa.gr_heisenberg(2)),
        ("so3_based", so3_based()),
    ]
    plan = algebras * (2 if tiny else 45)
    rng.shuffle(plan)
    items = []
    for k, (name, A) in enumerate(plan):
        u, v, w = (_random_element(A, rng) for _ in range(3))
        items.append(_axiom_item("%s#%d" % (name, k), u, v, w))
    return items


# -- centre-cli --------------------------------------------------------------

_SPECS = (
    "specs/gr_heisenberg_1.json",
    "specs/gr_usl2.json",
    "specs/p2.json",
    "specs/p2n_2.json",
    "specs/usl2.gwa.json",
    "specs/weyl_1.gwa.json",
)

# Fixed centre kernels and other dense commands, 10 to 100 ms each: they
# carry most of a pass's time.  Degrees stay moderate (p2n_3 at 8, not 10)
# so that one call is short and a run repeats it often enough to be steady.
# bench/specs/shear_1.json (a = H, p = Z d/dH + d/dZ) is outside the
# univariate family and has no invariant principal ideal among the
# candidates, so ``simple`` on it runs bounded closures from simplicity.
_CLI_FIXED = (
    "centre p2n_3 --degree 8",
    "centre p2n_3 --degree 7",
    "centre p2n_3 --alpha 1,0,0 --degree 6",
    "centre p2n_3 --alpha=1,-1,0 --degree 6",
    "centre gr_heisenberg_2 --alpha 1,0 --degree 6",
    "centre gr_heisenberg_2 --alpha=0,-1 --degree 6",
    "centre gr_heisenberg_2 --alpha 1,1 --degree 6",
    "centre gr_heisenberg_2 --alpha=1,-1 --degree 6",
    "centre gr_heisenberg_2 --degree 6",
    "centre gr_heisenberg_2 --degree 6 --format json",
    "centre gr_usl2 --degree 12",
    "centre gr_usl2 --alpha 1 --degree 10",
    "centre p2n_2 --degree 10",
    "centre gr_heisenberg_1 --degree 10",
    "centre gr_heisenberg_1 --alpha 2 --degree 10",
    "centre specs/p2n_2.json --degree 8",
    "field-check gr_heisenberg_2 --degree 6",
    "field-check p2n_3 --degree 6",
    "simple gr_heisenberg_2",
    "simple bench/specs/shear_1.json --degree 4",
)

_CLI_LIGHT = tuple(
    ["validate %s" % s for s in _SPECS + ("bench/specs/shear_1.json",)]
    + ["validate %s --format json" % s for s in _SPECS]
    + ["gallery"]
    + ["gallery %s" % n for n in ("p2", "p2n_2", "gr_usl2", "gr_heisenberg_1", "weyl_1", "usl2")]
    + ["gallery %s --format json" % n for n in ("p2", "p2n_2", "gr_usl2", "weyl_1")]
    + ["simple %s" % s for s in ("p2", "p2n_2", "gr_usl2", "gr_heisenberg_1")]
    + ["simple %s --format json" % s for s in _SPECS[:4]]
    + ["field-check %s" % s for s in ("p2", "p2n_2", "gr_usl2", "gr_heisenberg_1")]
    + ["field-check %s --format json" % s for s in ("p2n_2", "gr_usl2")]
    + ["quantize-check %s" % s for s in ("usl2", "weyl_1", "weyl_2")]
    + ["quantize-check %s --format json" % s for s in _SPECS[4:]]
)

_CLI_TINY = (
    "centre p2n_2 --degree 6",
    "field-check gr_usl2 --degree 4",
    "simple p2",
    "validate specs/p2.json",
    "quantize-check usl2",
    "gallery p2",
    "simple bench/specs/shear_1.json --degree 2",
)

# Algebras for seeded bracket/mul calls: name, base variables, rank.
_CLI_ELEMENT_ALGEBRAS = (
    ("p2n_2", ("H1", "H2"), 2),
    ("gr_usl2", ("C", "H"), 1),
    ("gr_heisenberg_1", ("H1", "Z"), 1),
    ("usl2", ("C", "H"), 1),
    ("weyl_1", ("H1",), 1),
)


def _random_element_text(rng, variables, rank) -> str:
    """Parser input for a random element: one to three terms, written as
    coefficient, base monomial, then generator powers."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [str(_rational(rng))]
        for name in variables:
            e = rng.randint(0, 2)
            if e:
                factors.append(name if e == 1 else "%s^%d" % (name, e))
        for i in range(1, rank + 1):
            k = rng.randint(-2, 2)
            if k:
                gen = ("X%d" if k > 0 else "Y%d") % i
                factors.append(gen if abs(k) == 1 else "%s^%d" % (gen, abs(k)))
        terms.append("*".join(factors))
    return " + ".join(terms).replace("+ -", "- ")


def _cli_item(argv: list[str]) -> Item:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gwpa.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        text = "exit=%s\nstdout=%r\nstderr=%r" % (code, out, err)
        return text, code == 0 and bool(out) and not err

    return Item(" ".join(argv), run, check)


def build_centre_cli(seed: int, tiny: bool) -> list[Item]:
    """In-process CLI calls with captured output: centre kernels at larger
    degrees, field-check, simple, validate, quantize-check, gallery, and
    bracket/mul on seeded parsed elements."""
    rng = _rng("centre-cli", seed)
    commands = [c.split() for c in (_CLI_TINY if tiny else _CLI_FIXED + _CLI_LIGHT)]
    per_algebra = 1 if tiny else 5
    for name, variables, rank in _CLI_ELEMENT_ALGEBRAS:
        for _ in range(per_algebra):
            for command in ("bracket", "mul"):
                left = _random_element_text(rng, variables, rank)
                right = _random_element_text(rng, variables, rank)
                commands.append([command, name, "--", left, right])
    rng.shuffle(commands)
    return [_cli_item(argv) for argv in commands]


_WORKLOADS = {
    "gr-sweep": build_gr_sweep,
    "closure": build_closure,
    "axioms": build_axioms,
    "centre-cli": build_centre_cli,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Item]:
    return _WORKLOADS[name](seed, tiny)
