"""Command line interface, exercised in process through main()."""

from __future__ import annotations

import json
import pathlib
import shlex
import types

import gwpa.cli
from gwpa.cli import MAX_ALPHA_WINDOW, MAX_DEGREE, main
from gwpa.gallery import univariate_family
from gwpa.specfile import render_algebra_spec, spec_from_gwpa

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "specs"


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


def test_quantize_check(capsys):
    code, out, _ = run(capsys, "quantize-check", "usl2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True
    assert report["pairs"] == 10
    assert report["predicted_a"] == ["-H^2 + C"]
    code, _, err = run(capsys, "quantize-check", "p2")
    assert code == 1
    assert "needs a gwa spec" in err


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
    for exponent in (limit + 1, 99999999999999999999):
        assert run(capsys, "mul", "p2", "--", "H1^%d" % exponent, "1") == (
            1, "", "error: monomial total degree %d exceeds the limit of %d\n"
            % (exponent, limit - 1),
        )


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
        "error: quantize-check needs a gwa spec or gallery name\n",
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
