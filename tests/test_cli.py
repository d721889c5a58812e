"""Command line interface, exercised in process through main()."""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
import types

import pytest

import gwpa.centre
import gwpa.cli
import gwpa.engine
from gwpa.centre import MAX_COORDINATES
from gwpa.cli import MAX_ALPHA_WINDOW, MAX_DEGREE, main
from gwpa.gallery import univariate_family
from gwpa.specfile import render_algebra_spec, spec_from_gwpa

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "specs"
SO3 = [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_on_plane(capsys):
    code, out, err = run(capsys, "bracket", "p2", "Y1", "X1")
    assert (code, out, err) == (0, "1\n", "")


def test_bracket_on_quantization_uses_commutator(capsys):
    code, out, _ = run(capsys, "bracket", "usl2", "X1", "Y1")
    assert code == 0
    assert out == "2*H\n"


def test_mul_normal_form(capsys):
    code, out, _ = run(capsys, "mul", "p2", "X1", "Y1")
    assert (code, out) == (0, "H1\n")
    code, out, _ = run(capsys, "mul", "usl2", "X1", "Y1")
    assert (code, out) == (0, "-H^2 + C + H\n")


def test_centre_listing(capsys):
    code, out, _ = run(capsys, "centre", "gr_usl2", "--degree", "4")
    assert code == 0
    assert "dimension: 5" in out
    assert "  C^4" in out
    code, out, _ = run(
        capsys, "centre", "p2n_2", "--alpha", "1,0", "--degree", "4"
    )
    assert code == 0
    assert "dimension: 0" in out
    assert "(empty)" in out


def test_centre_json_format(capsys):
    code, out, _ = run(
        capsys, "centre", "gr_usl2", "--degree", "3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "centre"
    assert report["dimension"] == 4
    assert report["basis"] == ["1", "C", "C^2", "C^3"]


def test_field_check(capsys):
    code, out, _ = run(capsys, "field-check", "p2n_2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "holds"
    assert report["exact"] is True
    code, out, _ = run(capsys, "field-check", "gr_usl2")
    assert code == 0
    assert "fails (exact)" in out
    assert "witness: C" in out


def test_simple_negative_verdict_still_exits_zero(capsys, tmp_path):
    spec = spec_from_gwpa(univariate_family(["H1^2"], ["1"]))
    path = tmp_path / "squared.json"
    path.write_text(render_algebra_spec(spec))
    code, out, _ = run(capsys, "simple", str(path))
    assert code == 0
    assert "overall: fails" in out
    assert "witness: H1" in out
    code, out, _ = run(capsys, "simple", "p2n_2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "holds"
    assert report["condition2"]["status"] == "holds"


def test_closure_command(capsys):
    code, out, _ = run(capsys, "closure", "p2", "X1", "--degree", "2")
    assert code == 0
    assert "contains_unit: true" in out
    code, out, _ = run(
        capsys, "closure", "p2", "X1", "Y1", "--degree", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["contains_unit"] is True
    # the unit lies in the span of the generators, so no iteration runs
    assert run(capsys, "closure", "p2", "--degree", "0", "1") == (
        0,
        "degree: 0\ncontains_unit: true\ndimension: 1\noverflow: 0\n"
        "stopped_early: false\n",
        "",
    )


def test_quantize_check(capsys):
    code, out, _ = run(capsys, "quantize-check", "usl2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True
    assert report["pairs"] == 10
    assert report["predicted_a"] == ["-H^2 + C"]
    assert run(capsys, "quantize-check", "p2") == (
        1,
        "",
        "error: 'p2' is a Poisson algebra, not a quantization; quantize-check needs"
        " a gwa spec or a quantized gallery name (weyl_N, usl2)\n",
    )


def test_validate_command(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "weyl_1")
    assert code == 0
    assert "kind: gwa" in out
    assert "ok: true" in out
    path = tmp_path / "plane.json"
    path.write_text((SPEC_DIR / "p2.json").read_text())
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "kind: gwpa" in out


@pytest.mark.parametrize(
    "argv",
    [("validate", "p2n_2.json"), ("simple", "gr_usl2.json", "--degree", "2")],
    ids=["validate", "simple"],
)
def test_spec_file_is_built_once(capsys, monkeypatch, argv):
    validate = gwpa.engine.validate_gwpa
    checked = []

    def counting(data):
        checked.append(data)
        return validate(data)

    monkeypatch.setattr(gwpa.engine, "validate_gwpa", counting)
    command, name, *rest = argv
    code, _, err = run(capsys, command, str(SPEC_DIR / name), *rest)
    assert (code, err) == (0, "")
    assert len(checked) == 1


def test_gallery_listing_and_specs(capsys):
    code, out, _ = run(capsys, "gallery")
    assert code == 0
    names = out.strip().split("\n")
    assert names == ["p2", "p2n_2", "gr_usl2", "gr_heisenberg_1", "weyl_1", "usl2"]
    for name in names:
        filename = "%s.gwa.json" % name if name in ("weyl_1", "usl2") else "%s.json" % name
        code, out, _ = run(capsys, "gallery", name)
        assert code == 0
        assert out == (SPEC_DIR / filename).read_text()


def test_gallery_module_is_not_shadowed():
    import gwpa.gallery as gallery

    assert isinstance(gallery, types.ModuleType)


def test_outputs_are_byte_stable(capsys):
    first = run(capsys, "simple", "gr_usl2", "--format", "json")
    second = run(capsys, "simple", "gr_usl2", "--format", "json")
    assert first == second
    first = run(capsys, "centre", "gr_heisenberg_1", "--degree", "4")
    second = run(capsys, "centre", "gr_heisenberg_1", "--degree", "4")
    assert first == second


def test_repeated_main_calls_match_the_first(capsys, monkeypatch):
    gwpa.cli._build_parser.cache_clear()  # the first call builds the parser
    calls = [
        ("closure", "gr_usl2", "--degree", "4", "C", "--format", "json"),
        ("centre", "p2n_2", "--degree", "x"),
        ("--help",),
        ("mul", "p2", "X1", "Z9"),
        ("centre", "--help"),
        ("bracket", "p2", "Y1", "X1"),
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 0, 1, 0, 0]
    for order in (calls, calls[::-1], calls):
        again = {argv: run(capsys, *argv) for argv in order}
        assert [again[argv] for argv in calls] == first
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run(capsys, "--help")
    assert narrow != first[2]
    assert max(map(len, narrow[1].splitlines())) <= 40
    gwpa.cli._build_parser.cache_clear()
    assert run(capsys, "--help") == narrow


def test_usage_errors_exit_two(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2
    code, _, _ = run(capsys, "bracket", "p2", "X1")
    assert code == 2


# Recorded with COLUMNS=80, so argparse wraps at a known width, on Python
# 3.10-3.12; Python 3.13 widens the command column of the top-level --help.
_USAGE_PINS = {
    ("--help",): (
        0,
        """\
usage: gwpa [-h] command ...

exact computations in generalized Weyl Poisson algebras

positional arguments:
  command
    validate      parse and validate an algebra
    bracket       Poisson bracket or commutator
    mul           product in normal form
    centre        centre component in one grading degree
    field-check   is the centre a field
    simple        Poisson simplicity criterion
    closure       bounded Poisson ideal closure
    quantize-check
                  graded correspondence check
    gallery       list gallery names or print one spec

options:
  -h, --help      show this help message and exit
""",
        "",
    ),
    ("validate", "--help"): (
        0,
        """\
usage: gwpa validate [-h] [--format {text,json}] source

positional arguments:
  source                spec file path or gallery name

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("bracket", "--help"): (
        0,
        """\
usage: gwpa bracket [-h] [--format {text,json}] source left right

positional arguments:
  source                spec file path or gallery name
  left
  right

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("mul", "--help"): (
        0,
        """\
usage: gwpa mul [-h] [--format {text,json}] source left right

positional arguments:
  source                spec file path or gallery name
  left
  right

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("centre", "--help"): (
        0,
        """\
usage: gwpa centre [-h] [--degree DEGREE] [--alpha ALPHA]
                   [--format {text,json}]
                   source

positional arguments:
  source                spec file path or gallery name

options:
  -h, --help            show this help message and exit
  --degree DEGREE       base degree bound (default 6)
  --alpha ALPHA         grading degree vector, comma separated (default all
                        zero)
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("field-check", "--help"): (
        0,
        """\
usage: gwpa field-check [-h] [--degree DEGREE] [--alpha ALPHA]
                        [--format {text,json}]
                        source

positional arguments:
  source                spec file path or gallery name

options:
  -h, --help            show this help message and exit
  --degree DEGREE       base degree bound (default 6)
  --alpha ALPHA         grading window bound (default 4)
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("simple", "--help"): (
        0,
        """\
usage: gwpa simple [-h] [--degree DEGREE] [--alpha ALPHA]
                   [--format {text,json}]
                   source

positional arguments:
  source                spec file path or gallery name

options:
  -h, --help            show this help message and exit
  --degree DEGREE       base degree bound (default 6)
  --alpha ALPHA         grading window bound (default 4)
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("closure", "--help"): (
        0,
        """\
usage: gwpa closure [-h] [--degree DEGREE] [--format {text,json}]
                    source element [element ...]

positional arguments:
  source                spec file path or gallery name
  element

options:
  -h, --help            show this help message and exit
  --degree DEGREE       base degree bound (default 6)
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("quantize-check", "--help"): (
        0,
        """\
usage: gwpa quantize-check [-h] [--format {text,json}] source

positional arguments:
  source                spec file path or gallery name

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("gallery", "--help"): (
        0,
        """\
usage: gwpa gallery [-h] [--format {text,json}] [name]

positional arguments:
  name

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default text)
""",
        "",
    ),
    ("no-such-command",): (
        2,
        "",
        """\
usage: gwpa [-h] command ...
gwpa: error: argument command: invalid choice: 'no-such-command' (choose from 'validate', 'bracket', 'mul', 'centre', 'field-check', 'simple', 'closure', 'quantize-check', 'gallery')
""",
    ),
    (): (
        2,
        "",
        "usage: gwpa [-h] command ...\n",
    ),
    ("bracket", "p2", "X1"): (
        2,
        "",
        """\
usage: gwpa bracket [-h] [--format {text,json}] source left right
gwpa bracket: error: the following arguments are required: right
""",
    ),
}


@pytest.mark.parametrize("argv", list(_USAGE_PINS))
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv):
    if argv == ("--help",) and sys.version_info >= (3, 13):
        pytest.skip("Python 3.13 lays out the command list differently")
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == _USAGE_PINS[argv]


def test_negative_degree_is_a_usage_error(capsys):
    for argv in (
        ["centre", "p2"],
        ["field-check", "p2"],
        ["simple", "p2"],
        ["closure", "p2", "X1"],
    ):
        code, out, err = run(capsys, *argv, "--degree", "-3")
        assert (code, out) == (2, "")
        assert "--degree" in err


def test_bounds_above_the_caps_are_rejected(capsys):
    # Both caps are checked before the algebra is even loaded, so a missing
    # source still reports the cap and no computation starts.
    too_deep = str(MAX_DEGREE + 1)
    for argv in (
        ["centre", "p2"],
        ["field-check", "p2"],
        ["simple", "no-such-algebra"],
        ["closure", "p2", "X1"],
    ):
        code, out, err = run(capsys, *argv, "--degree", too_deep)
        assert (code, out) == (1, "")
        assert "cap of %d" % MAX_DEGREE in err
    too_wide = str(MAX_ALPHA_WINDOW + 1)
    for command in ("field-check", "simple"):
        code, out, err = run(capsys, command, "no-such-algebra", "--alpha", too_wide)
        assert (code, out) == (1, "")
        assert "cap of %d" % MAX_ALPHA_WINDOW in err


@pytest.mark.parametrize(
    "argv, count, what",
    [
        ("centre p2n_80 --degree 3", 91881, "monomials in a centre kernel"),
        ("field-check gr_heisenberg_20", 296010, "monomials in a centre kernel"),
        ("simple gr_heisenberg_20", 296010, "monomials in a centre kernel"),
        ("closure p2n_40 --degree 3 H1", 297781, "coordinates in a closure"),
    ],
)
def test_oversized_kernels_and_closures_exit_before_any_work(
    capsys, monkeypatch, argv, count, what
):
    def refuse(*args):
        raise AssertionError("a kernel or closure was built")

    monkeypatch.setattr(gwpa.centre, "monomial_keys", refuse)
    degree = int(argv.split("--degree ")[1].split()[0]) if "--degree" in argv else 6
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err == "error: degree %d needs %d %s, past the cap of %d\n" % (
        degree, count, what, MAX_COORDINATES
    )


@pytest.mark.parametrize(
    "rank, window, count", [(20, 4, 118720), (8, 12, 4673344)]
)
def test_oversized_windows_exit_before_any_slice(
    capsys, monkeypatch, tmp_path, rank, window, count
):
    # a_i = 1 makes every p_i(a_i) zero, so no shortcut removes the window.
    def refuse(*args):
        raise AssertionError("a graded slice was computed")

    monkeypatch.setattr(gwpa.centre, "centre_component", refuse)
    path = tmp_path / "ones.json"
    path.write_text(render_algebra_spec(spec_from_gwpa(
        univariate_family(["1"] * rank, ["1"] * rank)
    )))
    code, out, err = run(
        capsys, "field-check", str(path), "--degree", "1", "--alpha", str(window)
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: alpha_max %d needs %d grading degrees in a window, past the cap of %d\n"
        % (window, count, MAX_COORDINATES)
    )


_SIMPLE_HOLDS = """degree: %d
alpha_max: 4
family: yes
condition 1 (no invariant ideals): holds (exact)
  every derivation coefficient is a nonzero rational
condition 2 (parameter ideals): holds (exact)
  each parameter is coprime to its own derivative
condition 3 (centre is a field): holds (exact)
  constant nonzero derivation coefficients force the derivation constants down to the rationals and kill every nonzero-degree component
overall: holds
"""

_FIELD_HOLDS = """degree: %d
alpha_max: 4
centre is a field: holds (exact)
  derivation constants reduce to the rationals and every p_i(a_i) is nonzero over a domain, so all nonzero-degree components vanish
"""


_ANSWERED_PAST_THE_CAP = [
    ("simple p2n_20", _SIMPLE_HOLDS % 6),
    ("simple p2n_30", _SIMPLE_HOLDS % 6),
    ("simple p2n_80 --degree 3", _SIMPLE_HOLDS % 3),
    ("simple p2n_3 --degree 24", _SIMPLE_HOLDS % 24),
    ("field-check p2n_80 --degree 3", _FIELD_HOLDS % 3),
    ("field-check p2n_80 --degree 4", _FIELD_HOLDS % 4),
]


@pytest.mark.parametrize(
    "argv, expected",
    _ANSWERED_PAST_THE_CAP,
    ids=[argv for argv, _ in _ANSWERED_PAST_THE_CAP],
)
def test_exact_shortcuts_answer_past_the_cap(capsys, monkeypatch, argv, expected):
    # Each list these commands would build passes the cap, but an exact
    # argument decides them without building any.
    def refuse(*args):
        raise AssertionError("a kernel or closure was built")

    monkeypatch.setattr(gwpa.centre, "monomial_keys", refuse)
    assert run(capsys, *argv.split()) == (0, expected, "")


# Nontrivial-bracket algebras that no benchmark item reaches: so(3) with
# the Casimir as parameter, and the symplectic plane with p = d/dH.  The
# expected bytes predate the base's Hamiltonian derivations, which the
# centre slices, condition 1 and the Poisson-derivation test now read.
_NONTRIVIAL_PINS = {
    "simple tests/specs/so3_1.json": """\
degree: 6
alpha_max: 4
family: no
condition 1 (no invariant ideals): fails (exact)
  witness: x^2 + y^2 + z^2
  x^2 + y^2 + z^2 generates a proper Poisson ideal of the base ring stable under every defining derivation
condition 2 (parameter ideals): fails (exact)
  a_1 and p_1(a_1) both vanish at the point (0, 0, 0), so the ideal they generate is proper
condition 3 (centre is a field): fails (exact)
  witness: x^2 + y^2 + z^2
  the central derivation constant x^2 + y^2 + z^2 is a nonconstant polynomial, hence not invertible
overall: fails
""",
    "simple tests/specs/so3_1.json --format json": """\
{
  "alpha_max": 4,
  "command": "simple",
  "condition1": {
    "detail": "x^2 + y^2 + z^2 generates a proper Poisson ideal of the base ring stable under every defining derivation",
    "exact": true,
    "status": "fails",
    "witness": "x^2 + y^2 + z^2"
  },
  "condition2": {
    "detail": "a_1 and p_1(a_1) both vanish at the point (0, 0, 0), so the ideal they generate is proper",
    "exact": true,
    "status": "fails",
    "witness": null
  },
  "condition3": {
    "detail": "the central derivation constant x^2 + y^2 + z^2 is a nonconstant polynomial, hence not invertible",
    "exact": true,
    "status": "fails",
    "witness": "x^2 + y^2 + z^2"
  },
  "degree": 6,
  "family": false,
  "overall": "fails"
}
""",
    "centre tests/specs/so3_1.json --alpha 0": """\
alpha: (0)
degree: 6
dimension: 4
basis:
  1
  x^2 + y^2 + z^2
  x^4 + 2*x^2*y^2 + 2*x^2*z^2 + y^4 + 2*y^2*z^2 + z^4
  x^6 + 3*x^4*y^2 + 3*x^4*z^2 + 3*x^2*y^4 + 6*x^2*y^2*z^2 + 3*x^2*z^4 + y^6 + 3*y^4*z^2 + 3*y^2*z^4 + z^6
""",
    "centre tests/specs/so3_1.json --alpha 1": """\
alpha: (1)
degree: 6
dimension: 0
basis:
  (empty)
""",
    "field-check tests/specs/so3_1.json": """\
degree: 6
alpha_max: 4
centre is a field: fails (exact)
  witness: x^2 + y^2 + z^2
  the central derivation constant x^2 + y^2 + z^2 is a nonconstant polynomial, hence not invertible
""",
    "simple tests/specs/symplectic_1.json": """\
degree: 6
alpha_max: 4
family: no
condition 1 (no invariant ideals): undecided (bounded)
  no invariant principal ideal among 0 candidates; no candidate closure reaches a unit at weight 6; a full search over invariant ideals is out of scope
condition 2 (parameter ideals): holds (exact)
  each parameter is coprime to its own derivative
condition 3 (centre is a field): undecided (bounded)
  no witness below the bounds; positive evidence is truncated (constants checked to degree 6, graded components for |alpha| <= 4)
overall: undecided
""",
    "simple tests/specs/symplectic_1.json --format json": """\
{
  "alpha_max": 4,
  "command": "simple",
  "condition1": {
    "detail": "no invariant principal ideal among 0 candidates; no candidate closure reaches a unit at weight 6; a full search over invariant ideals is out of scope",
    "exact": false,
    "status": "undecided",
    "truncation": {
      "degree": 6
    },
    "witness": null
  },
  "condition2": {
    "detail": "each parameter is coprime to its own derivative",
    "exact": true,
    "status": "holds",
    "witness": null
  },
  "condition3": {
    "detail": "no witness below the bounds; positive evidence is truncated (constants checked to degree 6, graded components for |alpha| <= 4)",
    "exact": false,
    "status": "undecided",
    "truncation": {
      "alpha_max": 4,
      "degree": 6
    },
    "witness": null
  },
  "degree": 6,
  "family": false,
  "overall": "undecided"
}
""",
    "centre tests/specs/symplectic_1.json --alpha 0": """\
alpha: (0)
degree: 6
dimension: 1
basis:
  1
""",
    "centre tests/specs/symplectic_1.json --alpha 1": """\
alpha: (1)
degree: 6
dimension: 0
basis:
  (empty)
""",
    "field-check tests/specs/symplectic_1.json": """\
degree: 6
alpha_max: 4
centre is a field: undecided (bounded)
  no witness below the bounds; positive evidence is truncated (constants checked to degree 6, graded components for |alpha| <= 4)
""",
}


@pytest.mark.parametrize("command", list(_NONTRIVIAL_PINS))
def test_nontrivial_bracket_outputs_are_pinned(capsys, command):
    argv = [str(ROOT / arg) if arg.startswith("tests/") else arg for arg in command.split()]
    assert run(capsys, *argv) == (0, _NONTRIVIAL_PINS[command], "")


# a = H, p = d/dH + (H + Z) d/dZ over a zero bracket: p(H + Z + 1) = H + Z + 1,
# so H + Z + 1 generates an invariant ideal, but no candidate names it and
# the closures of both candidates reach a unit.  A search for Darboux
# polynomials makes condition 1 fail exactly; that re-pin is a stronger verdict.
_SHIFT_PIN = """\
degree: 6
alpha_max: 4
family: no
condition 1 (no invariant ideals): undecided (bounded)
  no invariant principal ideal among 2 candidates; closures seeded with [H + Z, H] reach a unit at weight 6; a full search over invariant ideals is out of scope
condition 2 (parameter ideals): holds (exact)
  each parameter is coprime to its own derivative
condition 3 (centre is a field): undecided (bounded)
  no witness below the bounds; positive evidence is truncated (constants checked to degree 6, graded components for |alpha| <= 4)
overall: undecided
"""


def test_condition1_closure_evidence_is_pinned(capsys):
    path = ROOT / "tests" / "specs" / "shift_1.json"
    assert run(capsys, "simple", str(path)) == (0, _SHIFT_PIN, "")


def test_base_variable_named_like_a_generator_is_rejected(capsys, tmp_path):
    doc = json.loads((SPEC_DIR / "p2.json").read_text())
    del doc["gallery"]
    doc["variables"] = ["X1"]
    doc["a"] = ["X1"]
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert "clashes" in err


def test_computation_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "bracket", "missing-algebra", "X1", "Y1")
    assert code == 1
    assert "no such file or gallery name" in err
    code, _, err = run(capsys, "bracket", "p2", "Y1", "bogus^")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "gallery", "bogus")
    assert code == 1
    assert "unknown gallery name" in err
    code, _, err = run(capsys, "centre", "p2n_2", "--alpha", "1")
    assert code == 1
    assert "rank" in err
    assert run(capsys, "centre", "weyl_1") == (
        1, "", "error: this command needs Poisson algebra data, not a quantization\n"
    )
    assert run(capsys, "field-check", "p2", "--alpha", "-1") == (
        1, "", "error: --alpha bound must be nonnegative\n"
    )
    assert run(capsys, "mul", "p2", "--", "H1^²", "1") == (
        1, "", "error: unexpected character '²' (at position 3 in 'H1^²')\n"
    )
    for name, ordinal in (("p2n_0", "1"), ("gr_heisenberg_0", "1"), ("weyl_0", "one")):
        assert run(capsys, "validate", name) == (
            1, "", "error: rank must be at least %s\n" % ordinal
        )


def test_exponents_past_the_monomial_limit_fail_cleanly(capsys):
    limit = 2 ** 32
    error = "error: monomial total degree %d exceeds the limit of %d\n" % (
        limit, limit - 1,
    )
    half = "H1^%d" % (limit // 2)
    assert run(capsys, "mul", "p2", "--", half, "H1^%d" % (limit // 2 - 1)) == (
        0, "H1^%d\n" % (limit - 1), "",
    )
    assert run(capsys, "mul", "p2", "--", "H1^%d" % limit, "H1^%d" % (limit - 1)) == (
        1, "", error,
    )
    assert run(capsys, "mul", "p2", "--", half, half) == (1, "", error)
    for text, exponent in (
        ("H1^%d" % (limit + 1), limit + 1),
        ("H1^99999999999999999999", 99999999999999999999),
        ("H1^3000000000*H1^3000000000", 6000000000),
    ):
        assert run(capsys, "mul", "p2", "--", text, "1") == (
            1, "", "error: monomial total degree %d exceeds the limit of %d\n"
            % (exponent, limit - 1),
        )
    # a generator power is no monomial of the base ring and has no such limit
    assert run(capsys, "mul", "weyl_1", "--", "X1^%d" % (limit + 1), "1") == (
        0, "X1^%d\n" % (limit + 1), "",
    )


def test_numbers_past_the_digit_limit_fail_cleanly(capsys, tmp_path):
    # Python converts ints of at most this many digits to and from text.
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 1)
    too_long = "a number of %d digits exceeds the limit of %d" % (limit + 1, limit)
    for text, where in ((long, 0), ("H1^" + long, 3), ("1/" + long, 2)):
        assert run(capsys, "mul", "p2", "--", text, "X1") == (
            1, "", "error: %s (at position %d in %r)\n" % (too_long, where, text),
        )
    # each factor converts, their product does not
    most = "9" * limit
    assert run(capsys, "mul", "p2", "--", most, most) == (
        1, "", "error: a coefficient has more than %d digits, the limit for"
        " rendering\n" % limit,
    )
    doc = {"kind": "gwpa", "variables": ["H1"], "bracket": [["0"]], "rank": 1,
           "a": [long], "partials": [["1"]]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path)) == (
        1, "", "error: a[0]: %s (at position 0 in %r)\n" % (too_long, long),
    )
    path.write_text(json.dumps(doc).replace('"rank": 1', '"rank": ' + long))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, prefix, not_a_number",
    [
        (["centre", "p2", "--degree"], 2, "gwpa centre: error: argument --degree: ",
         "expected an integer, got '1.5'"),
        (["centre", "p2", "--alpha"], 1, "error: ",
         "--alpha expects a comma-separated integer list"),
        (["simple", "p2", "--alpha"], 1, "error: ",
         "--alpha expects a single integer bound here"),
    ],
    ids=["degree", "alpha-vector", "alpha-window"],
)
def test_option_numbers_past_the_digit_limit(capsys, argv, code, prefix, not_a_number):
    limit = sys.get_int_max_str_digits()
    long = "-" + "1" * (limit + 1)
    got, out, err = run(capsys, *argv, long)
    assert (got, out) == (code, "")
    assert err.splitlines()[-1] == (
        "%sa number of %d digits exceeds the limit of %d" % (prefix, limit + 1, limit)
    )
    got, out, err = run(capsys, *argv, "1.5")
    assert (got, out, err.splitlines()[-1]) == (code, "", prefix + not_a_number)


def test_high_generator_powers_twist_without_recursion(capsys):
    # In weyl_1, X d = sigma(d) X with sigma(H1) = H1 - 1, so Y1 H1 = (H1 + 1) Y1
    # and Y1 X1 = H1; hence Y1^1500 H1 X1 = (H1 + 1500) Y1^1499 (Y1 X1)
    # = (H1 + 1500)(H1 + 1499) Y1^1499.
    assert run(capsys, "mul", "weyl_1", "--", "Y1^1500", "H1*X1") == (
        0, "(H1^2 + 2999*H1 + 2248500)*Y1^1499\n", "",
    )


def test_closed_pipe_exits_one_without_a_traceback():
    # The answer has 117,402 bytes, more than a pipe buffer holds, so the
    # write is still blocked when the reader closes its end after 10 bytes.
    argv = ["mul", "weyl_1", "--", "X1^300", "Y1^300"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "gwpa.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    ) as process:
        assert process.stdout.read(10) == b"H1^300 - 4"
        process.stdout.close()
        assert process.wait(timeout=120) == 1
        assert process.stderr.read() == b""


def test_the_package_loads_only_the_standard_library():
    """No third-party module is imported by the library or the CLI, though
    the test environment has some installed.  Modules that ``site`` loads
    at startup are not counted."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gwpa, gwpa.cli\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gwpa" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"gwpa"}


def test_invalid_spec_reports_violations(capsys, tmp_path):
    doc = {
        "kind": "gwpa",
        "variables": ["H1", "H2"],
        "bracket": [["0", "0"], ["0", "0"]],
        "rank": 2,
        "a": ["H1", "H2"],
        "partials": [["H2", "0"], ["0", "1"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error: invalid algebra data" in err
    assert "commuting-derivations" in err


def test_rank3_violation_report_is_pinned(capsys):
    # p_1 = d/dx, p_2 = x d/dy + z d/dz, p_3 = z d/dz: (1, 2) is linked
    # through the image x and does not commute, (2, 3) is linked through z
    # and commutes, (1, 3) is unlinked; p_2 moves parameter 3 = z^2 + y
    assert run(capsys, "validate", str(ROOT / "tests" / "specs" / "noncommuting_3.json")) == (
        1,
        "",
        "error: invalid algebra data\n"
        "  commuting-derivations[1, 2]: derivations 1 and 2 do not commute\n"
        "  cross-constant[2, 3]: derivation 2 must annihilate parameter 3, got 2*z^2 + x\n",
    )


def test_ore_spec_file_is_realized(capsys, tmp_path):
    doc = {
        "kind": "ore",
        "variables": ["Z"],
        "bracket": [["0"]],
        "rank": 1,
        "partials": [["1"]],
        "alphas": ["Z"],
    }
    path = tmp_path / "ore.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert out == "kind: ore\nvariables: Z, H1\nrank: 1\nok: true\n"
    assert run(capsys, "bracket", str(path), "Y1", "X1") == (0, "Z\n", "")
    assert run(capsys, "mul", str(path), "X1", "Z*Y1") == (0, "Z*H1\n", "")
    assert run(capsys, "quantize-check", str(path)) == (
        1,
        "",
        "error: %r is a Poisson algebra, not a quantization; quantize-check needs"
        " a gwa spec or a quantized gallery name (weyl_N, usl2)\n" % str(path),
    )


@pytest.mark.parametrize(
    "doc, violation",
    [
        ({"variables": ["x", "y", "z"], "bracket": SO3, "rank": 1,
          "partials": [["0", "0", "0"]], "alphas": ["x"]},
         "central-parameter[1]: parameter 1 is not Poisson central: {a, y} = z"),
        ({"variables": ["Z"], "bracket": [["0"]], "rank": 2,
          "partials": [["0"], ["1"]], "alphas": ["Z", "1"]},
         "cross-constant[2, 1]: derivation 2 must annihilate parameter 1, got 1"),
        ({"variables": ["x", "y", "z"], "bracket": SO3, "rank": 1,
          "partials": [["1", "0", "0"]], "alphas": ["1"]},
         "poisson-derivation[1]: derivation 1 does not respect the base bracket"),
    ],
    ids=["central", "cross", "derivation"],
)
def test_invalid_ore_spec_reports_violations(capsys, tmp_path, doc, violation):
    path = tmp_path / "ore.json"
    path.write_text(json.dumps(dict(doc, kind="ore")))
    assert run(capsys, "validate", str(path)) == (
        1, "", "error: invalid algebra data\n  %s\n" % violation,
    )


def readme_examples():
    """(command, expected lines) for each ``$ gwpa ...`` example in the
    README "Command line" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n\n"):
        first, *rest = block.split("\n")
        if first.startswith("    $ gwpa "):
            examples.append((first[len("    $ gwpa "):], [line[4:] for line in rest]))
    return examples


def test_readme_command_line_examples(capsys):
    examples = readme_examples()
    assert examples
    for command, expected in examples:
        command, _, head = command.partition(" | head -")
        code, out, err = run(capsys, *shlex.split(command))
        lines = out.splitlines()
        if head:
            lines = lines[: int(head)]
        assert (code, err, lines) == (0, "", expected), command
