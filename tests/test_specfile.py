"""JSON algebra descriptions: strict parsing and canonical rendering."""

from __future__ import annotations

import json
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from gwpa import specfile
from gwpa.engine import GWPAData, OreRealization
from gwpa.errors import SpecError, ValidationFailure
from gwpa.gallery import gr_heisenberg, gr_usl2, p2n, resolve_gallery
from gwpa.poisson import BaseDerivation, BasePoissonAlgebra
from gwpa.poly import PolyRing
from gwpa.quant import GWAData, usl2_gwa, weyl_gwa
from gwpa.specfile import (
    parse_algebra_spec,
    render_algebra_spec,
    spec_from_gwa,
    spec_from_gwpa,
)

from sampling import random_family

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

GALLERY_BUILDS = {
    "p2.json": lambda: p2n(1),
    "p2n_2.json": lambda: p2n(2),
    "gr_usl2.json": gr_usl2,
    "gr_heisenberg_1.json": lambda: gr_heisenberg(1),
    "weyl_1.gwa.json": lambda: weyl_gwa(1),
    "usl2.gwa.json": usl2_gwa,
}


def test_shipped_documents_round_trip():
    files = sorted(SPEC_DIR.glob("*.json"))
    assert [p.name for p in files] == sorted(GALLERY_BUILDS)
    for path in files:
        text = path.read_text()
        spec = parse_algebra_spec(text)
        assert render_algebra_spec(spec) == text
        assert spec.build() == GALLERY_BUILDS[path.name]()


def test_export_and_reimport_gwpa():
    A = p2n(2)
    spec = spec_from_gwpa(A)
    assert spec.kind == "gwpa"
    assert spec.gallery is None
    text = render_algebra_spec(spec)
    again = parse_algebra_spec(text)
    assert again == spec
    assert again.build() == A
    assert again.build() is again.build()
    assert hash(again) == hash(spec)  # the built algebra is not a field

    tagged = spec_from_gwpa(A, gallery={"name": "p2n", "params": {"n": 2}})
    assert tagged.gallery == (("name", "p2n"), ("n", 2))
    assert parse_algebra_spec(render_algebra_spec(tagged)) == tagged


@pytest.mark.parametrize(
    "name, make",
    [
        ("p2n_2", lambda: p2n(2)),
        ("gr_usl2", gr_usl2),
        ("gr_heisenberg_1", lambda: gr_heisenberg(1)),
        ("weyl_2", lambda: weyl_gwa(2)),
        ("usl2", usl2_gwa),
    ],
)
def test_exported_specs_build_through_their_text(name, make):
    A, meta = resolve_gallery(name)
    export = spec_from_gwa if isinstance(A, GWAData) else spec_from_gwpa
    spec = export(A, gallery=meta)
    built = spec.build()
    assert built == A == make()
    assert spec.build() is built


def test_exported_invalid_data_fails_to_build_with_every_violation():
    """Data built without validation exports, but building the spec runs
    the checks: so(3) with a = x is not central, and d/dx is not a Poisson
    derivation of so(3)."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    zero = ring.zero()
    base = BasePoissonAlgebra(ring, [[zero, z, -y], [-z, zero, x], [y, -x, zero]])
    A = GWPAData(base, (x,), (BaseDerivation.partial(ring, "x"),))
    spec = spec_from_gwpa(A)
    with pytest.raises(SpecError) as info:
        spec.build()
    cause = info.value.__cause__
    assert isinstance(cause, ValidationFailure)
    conditions = {violation.condition for violation in cause.report.violations}
    assert conditions == {"poisson-derivation", "central-parameter"}


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.randoms(use_true_random=False))
def test_random_family_specs_round_trip(rank, rng):
    A = random_family(rng, rank)
    text = render_algebra_spec(spec_from_gwpa(A))
    again = parse_algebra_spec(text)
    assert render_algebra_spec(again) == text
    assert again.build() == A


def test_export_and_reimport_gwa():
    A = usl2_gwa()
    spec = spec_from_gwa(A)
    text = render_algebra_spec(spec)
    rebuilt = parse_algebra_spec(text).build()
    assert isinstance(rebuilt, GWAData)
    assert rebuilt == A


def test_ore_document_builds_realization():
    doc = {
        "kind": "ore",
        "variables": ["Z"],
        "bracket": [["0"]],
        "rank": 1,
        "partials": [["1"]],
        "alphas": ["Z"],
    }
    spec = parse_algebra_spec(json.dumps(doc))
    realization = spec.build()
    assert isinstance(realization, OreRealization)
    A = realization.algebra
    assert realization.new_vars == ("H1",)
    assert A.Y(1).bracket(A.X(1)) == A.scalar(A.base_ring.var("Z"))
    rendered = render_algebra_spec(spec)
    assert parse_algebra_spec(rendered) == spec


def test_polynomial_entries_are_canonicalized():
    doc = {
        "kind": "gwpa",
        "variables": ["H1"],
        "bracket": [["0"]],
        "rank": 1,
        "a": ["0 + 1H1"],
        "partials": [["2/2"]],
    }
    spec = parse_algebra_spec(json.dumps(doc))
    assert spec.a == ("H1",)
    assert spec.partials == (("1",),)
    canonical = render_algebra_spec(spec)
    assert parse_algebra_spec(canonical) == spec
    assert render_algebra_spec(parse_algebra_spec(canonical)) == canonical


def test_key_order_is_fixed():
    text = (SPEC_DIR / "p2.json").read_text()
    shuffled = json.dumps(json.loads(text), sort_keys=True, indent=1)
    spec = parse_algebra_spec(shuffled)
    assert render_algebra_spec(spec) == text


def test_rejects_malformed_documents():
    with pytest.raises(SpecError, match="not valid JSON"):
        parse_algebra_spec("{")
    with pytest.raises(SpecError, match="top level"):
        parse_algebra_spec("[1, 2]")
    with pytest.raises(SpecError, match="kind"):
        parse_algebra_spec(json.dumps({"kind": "ring"}))


def good_gwpa_doc():
    return {
        "kind": "gwpa",
        "variables": ["H1"],
        "bracket": [["0"]],
        "rank": 1,
        "a": ["H1"],
        "partials": [["1"]],
    }


def test_rejects_unknown_and_missing_keys():
    doc = good_gwpa_doc()
    doc["bonus"] = 1
    with pytest.raises(SpecError, match="unknown keys"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    doc["nu"] = 1  # belongs to kind gwa only
    with pytest.raises(SpecError, match="unknown keys"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    del doc["partials"]
    with pytest.raises(SpecError, match="missing keys"):
        parse_algebra_spec(json.dumps(doc))


def test_rejects_bad_field_shapes():
    doc = good_gwpa_doc()
    doc["rank"] = 0
    with pytest.raises(SpecError, match="rank"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    doc["rank"] = True
    with pytest.raises(SpecError, match="rank"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    doc["variables"] = ["H1", 2]
    with pytest.raises(SpecError, match="variables"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    doc["variables"] = ["not a name"]
    with pytest.raises(SpecError, match="variables"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    doc["bracket"] = [["0"], ["0"]]
    with pytest.raises(SpecError, match="bracket"):
        parse_algebra_spec(json.dumps(doc))
    doc = good_gwpa_doc()
    doc["a"] = ["H1", "H1"]
    with pytest.raises(SpecError, match="expected 1 entries"):
        parse_algebra_spec(json.dumps(doc))
    doc = dict(
        good_gwpa_doc(),
        variables=["H1", "H2"],
        bracket=[["0", "1"], ["1", "0"]],
        partials=[["1", "0"]],
    )
    with pytest.raises(SpecError) as info:
        parse_algebra_spec(json.dumps(doc))
    assert str(info.value) == "bracket: bracket matrix is not antisymmetric at (1, 2)"


def test_error_locations_name_the_field():
    doc = good_gwpa_doc()
    doc["a"] = ["H^"]
    with pytest.raises(SpecError) as info:
        parse_algebra_spec(json.dumps(doc))
    assert info.value.location == "a[0]"
    doc = good_gwpa_doc()
    doc["partials"] = [["1 +"]]
    with pytest.raises(SpecError) as info:
        parse_algebra_spec(json.dumps(doc))
    assert info.value.location == "partials[0][0]"


def test_structural_violations_surface_with_cause():
    doc = {
        "kind": "gwpa",
        "variables": ["H1", "H2"],
        "bracket": [["0", "0"], ["0", "0"]],
        "rank": 2,
        "a": ["H1", "H2"],
        "partials": [["H2", "0"], ["0", "1"]],
    }
    with pytest.raises(SpecError) as info:
        parse_algebra_spec(json.dumps(doc))
    cause = info.value.__cause__
    assert isinstance(cause, ValidationFailure)
    assert cause.report.violations[0].condition == "commuting-derivations"


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "gwpa", "variables": ["X1"], "bracket": [["0"]], "rank": 1,
         "a": ["X1"], "partials": [["1"]]},
        {"kind": "gwa", "variables": ["X1"], "weights": [1], "rank": 1,
         "a": ["X1"], "degrees": [1], "nu": 1, "sigmas": [["X1 - 1"]]},
        {"kind": "ore", "variables": ["X1"], "bracket": [["0"]], "rank": 1,
         "partials": [["0"]], "alphas": ["1"]},
    ],
    ids=lambda doc: doc["kind"],
)
def test_generator_name_clash_is_a_spec_error(doc):
    with pytest.raises(SpecError, match="clashes with the generator names"):
        parse_algebra_spec(json.dumps(doc))


def test_gwa_document_errors():
    base = {
        "kind": "gwa",
        "variables": ["H1"],
        "weights": [1],
        "rank": 1,
        "a": ["H1"],
        "degrees": [1],
        "nu": 1,
        "sigmas": [["H1 - 1"]],
    }
    parse_algebra_spec(json.dumps(base))

    doc = dict(base, sigmas=[["H1^2"]])
    with pytest.raises(SpecError) as info:
        parse_algebra_spec(json.dumps(doc))
    assert info.value.location == "sigmas[0]"
    doc = dict(base, nu=0)
    with pytest.raises(SpecError, match="filtration drop"):
        parse_algebra_spec(json.dumps(doc))
    doc = dict(base, weights=[1, 1])
    with pytest.raises(SpecError, match="weights"):
        parse_algebra_spec(json.dumps(doc))
    doc = dict(base, degrees=[2])
    with pytest.raises(SpecError, match="weighted degree"):
        parse_algebra_spec(json.dumps(doc))
    doc = dict(base, nu="1")
    with pytest.raises(SpecError) as info:
        parse_algebra_spec(json.dumps(doc))
    assert str(info.value) == "nu: expected an integer"


def test_gallery_metadata_validation():
    doc = good_gwpa_doc()
    doc["gallery"] = {"name": "p2n", "params": {"n": 1}, "extra": 2}
    with pytest.raises(SpecError, match="gallery"):
        parse_algebra_spec(json.dumps(doc))
    doc["gallery"] = {"name": 7}
    with pytest.raises(SpecError, match="gallery.name"):
        parse_algebra_spec(json.dumps(doc))
    doc["gallery"] = {"name": "p2n", "params": {"n": True}}
    with pytest.raises(SpecError, match="gallery.params.n"):
        parse_algebra_spec(json.dumps(doc))
    for gallery, message in (
        ([], "gallery: expected an object"),
        ({"name": "x", "params": []}, "gallery.params: expected an object"),
    ):
        doc["gallery"] = gallery
        with pytest.raises(SpecError) as info:
            parse_algebra_spec(json.dumps(doc))
        assert str(info.value) == message


def _polynomial_strings(doc) -> list[str]:
    return doc["a"] + [text for row in doc["bracket"] + doc["partials"] for text in row]


def test_each_spec_polynomial_is_parsed_once(monkeypatch):
    parse = specfile.parse_polynomial
    texts = []
    monkeypatch.setattr(
        specfile, "parse_polynomial", lambda text, ring: texts.append(text) or parse(text, ring)
    )
    text = (SPEC_DIR / "p2n_2.json").read_text()
    parse_algebra_spec(text).build()
    assert sorted(texts) == sorted(_polynomial_strings(json.loads(text)))


def test_spec_texts_build_only_the_variables_they_name(monkeypatch):
    """Reading the rendered p2n(30) spec builds each named variable once per
    text that names it, and validation builds the generators once; building
    every variable for every text took 109,830 builds."""
    var = PolyRing.var
    built = []
    monkeypatch.setattr(PolyRing, "var", lambda ring, name: built.append(name) or var(ring, name))
    text = render_algebra_spec(spec_from_gwpa(p2n(30)))
    built.clear()
    parse_algebra_spec(text)
    doc = json.loads(text)
    named = set(re.findall(r"[A-Za-z]\w*", " ".join(_polynomial_strings(doc))))
    assert len(built) <= len(named) + len(doc["variables"])
