"""Command line entry point.

Commands take an algebra source (a JSON file path or a gallery name such as
``p2``, ``p2n_2``, ``gr_usl2``, ``gr_heisenberg_1``, ``weyl_1`` or ``usl2``)
followed by command arguments.  Degree-bounded commands default to base
degree 6 and grading window 4 and echo the bounds they used.  Exit status 0
means the computation ran (even when a mathematical verdict is negative),
1 means a computation or input error, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .centre import centre_component, field_criterion, poisson_ideal_closure
from .engine import GWPAData
from .errors import GwpaError, ValidationFailure
from .gallery import GALLERY, GALLERY_HELP, resolve_gallery
from .parser import digit_limit_message, parse_element
from .quant import GWAData, gr_correspondence_check
from .simplicity import simplicity_check
from .specfile import (
    parse_algebra_spec,
    render_algebra_spec,
    spec_from_gwa,
    spec_from_gwpa,
)


#: Largest ``--degree`` accepted.  The work of a degree-bounded command
#: grows like a power of the bound, so a short command line could
#: otherwise ask for hours of elimination; larger values exit 1.  Neither
#: cap bounds the number of variables or the rank: ``centre`` counts each
#: list it is about to build (kernel monomials, closure coordinates, window
#: degrees) against ``centre.MAX_COORDINATES``.
MAX_DEGREE = 24

#: Largest ``--alpha`` grading window accepted by ``field-check`` and
#: ``simple``, for the same reason.
MAX_ALPHA_WINDOW = 12


def _resolve(source: str):
    """Load an algebra from a spec file path or a gallery name.

    Returns the spec kind and the GWPAData or GWAData; an ore document
    yields the algebra of its realization.
    """
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        spec = parse_algebra_spec(text)
        built = spec.build()
        return spec.kind, built.algebra if spec.kind == "ore" else built
    entry = resolve_gallery(source)
    if entry is None:
        raise GwpaError(
            "no such file or gallery name: %r (gallery names: %s)"
            % (source, GALLERY_HELP)
        )
    algebra, _ = entry
    return "gwa" if isinstance(algebra, GWAData) else "gwpa", algebra


def _poisson_algebra(source: str) -> GWPAData:
    _, algebra = _resolve(source)
    if isinstance(algebra, GWPAData):
        return algebra
    raise GwpaError("this command needs Poisson algebra data, not a quantization")


def _int(text: str, error: type[Exception], problem: str) -> int:
    """``int(text)``, else ``error(problem)``; a decimal literal past Python's
    int/str digit limit gets the parser's message instead."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        body = body[1:] if body[:1] in ("+", "-") else body
        if body.isdecimal():
            problem = digit_limit_message(len(body))
        raise error(problem) from None


def _parse_alpha_vector(text, rank: int):
    if text is None:
        return tuple(0 for _ in range(rank))
    problem = "--alpha expects a comma-separated integer list"
    alpha = tuple(_int(piece, GwpaError, problem) for piece in text.split(","))
    if len(alpha) != rank:
        raise GwpaError(
            "--alpha has %d entries but the algebra has rank %d"
            % (len(alpha), rank)
        )
    return alpha


def _parse_alpha_window(text) -> int:
    if text is None:
        return 4
    value = _int(text, GwpaError, "--alpha expects a single integer bound here")
    if value < 0:
        raise GwpaError("--alpha bound must be nonnegative")
    if value > MAX_ALPHA_WINDOW:
        raise GwpaError(
            "--alpha bound %d exceeds the cap of %d" % (value, MAX_ALPHA_WINDOW)
        )
    return value


def _plain(report: dict) -> str:
    """One ``key: value`` line per field: booleans as ``true``/``false``,
    lists joined with ``, ``."""
    lines = []
    for key, value in report.items():
        if isinstance(value, bool):  # before any int test: True == 1
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = ", ".join(value)
        lines.append("%s: %s" % (key, value))
    return "\n".join(lines)


def _verdict_fields(verdict) -> dict:
    fields = {
        "status": verdict.status,
        "exact": verdict.exact,
        "detail": verdict.detail,
        "witness": None if verdict.witness is None else str(verdict.witness),
    }
    if verdict.truncation is not None:
        fields["truncation"] = dict(verdict.truncation)
    return fields


def _verdict_lines(label: str, verdict) -> list[str]:
    lines = ["%s: %s (%s)" % (label, verdict.status, "exact" if verdict.exact else "bounded")]
    if verdict.witness is not None:
        lines.append("  witness: %s" % verdict.witness)
    lines.append("  %s" % verdict.detail)
    return lines


def _cmd_validate(args) -> tuple[dict, str]:
    kind, algebra = _resolve(args.source)
    report = {
        "kind": kind,
        "variables": list(algebra.base_ring.variables),
        "rank": algebra.rank,
        "ok": True,
    }
    return report, _plain(report)


def _cmd_bracket(args) -> tuple[dict, str]:
    _, algebra = _resolve(args.source)
    u = parse_element(args.left, algebra)
    v = parse_element(args.right, algebra)
    rendered = str(u.commutator(v) if isinstance(algebra, GWAData) else u.bracket(v))
    return {"result": rendered}, rendered


def _cmd_mul(args) -> tuple[dict, str]:
    _, algebra = _resolve(args.source)
    u = parse_element(args.left, algebra)
    v = parse_element(args.right, algebra)
    rendered = str(u * v)
    return {"result": rendered}, rendered


def _cmd_centre(args) -> tuple[dict, str]:
    algebra = _poisson_algebra(args.source)
    alpha = _parse_alpha_vector(args.alpha, algebra.rank)
    component = centre_component(algebra, alpha, args.degree)
    rendered = [
        str(algebra.element({alpha: poly})) for poly in component.basis
    ]
    report = {
        "alpha": list(alpha),
        "degree": args.degree,
        "dimension": component.dimension,
        "basis": rendered,
    }
    lines = [
        "alpha: (%s)" % ", ".join(str(k) for k in alpha),
        "degree: %d" % args.degree,
        "dimension: %d" % component.dimension,
        "basis:",
    ]
    lines.extend("  %s" % entry for entry in rendered)
    if not rendered:
        lines.append("  (empty)")
    return report, "\n".join(lines)


def _cmd_field_check(args) -> tuple[dict, str]:
    window = _parse_alpha_window(args.alpha)
    algebra = _poisson_algebra(args.source)
    verdict = field_criterion(algebra, args.degree, window)
    report = {
        "degree": args.degree,
        "alpha_max": window,
    }
    report.update(_verdict_fields(verdict))
    lines = ["degree: %d" % args.degree, "alpha_max: %d" % window]
    lines.extend(_verdict_lines("centre is a field", verdict))
    return report, "\n".join(lines)


def _cmd_simple(args) -> tuple[dict, str]:
    window = _parse_alpha_window(args.alpha)
    algebra = _poisson_algebra(args.source)
    result = simplicity_check(algebra, args.degree, window)
    report = {
        "degree": args.degree,
        "alpha_max": window,
        "family": result.family,
        "condition1": _verdict_fields(result.condition1),
        "condition2": _verdict_fields(result.condition2),
        "condition3": _verdict_fields(result.condition3),
        "overall": result.overall,
    }
    lines = [
        "degree: %d" % args.degree,
        "alpha_max: %d" % window,
        "family: %s" % ("yes" if result.family else "no"),
    ]
    lines.extend(_verdict_lines("condition 1 (no invariant ideals)", result.condition1))
    lines.extend(_verdict_lines("condition 2 (parameter ideals)", result.condition2))
    lines.extend(_verdict_lines("condition 3 (centre is a field)", result.condition3))
    lines.append("overall: %s" % result.overall)
    return report, "\n".join(lines)


def _cmd_closure(args) -> tuple[dict, str]:
    algebra = _poisson_algebra(args.source)
    generators = [parse_element(text, algebra) for text in args.generators]
    result = poisson_ideal_closure(algebra, generators, args.degree)
    report = {
        "degree": args.degree,
        "contains_unit": result.contains_unit,
        "dimension": len(result.basis),
        "overflow": result.overflow,
        "stopped_early": result.stopped_early,
    }
    return report, _plain(report)


def _cmd_quantize_check(args) -> tuple[dict, str]:
    _, built = _resolve(args.source)
    if not isinstance(built, GWAData):
        quantized = [e.name for e in GALLERY if e.build.__module__ == GWAData.__module__]
        raise GwpaError(
            "%r is a Poisson algebra, not a quantization; quantize-check needs a gwa "
            "spec or a quantized gallery name (%s)" % (args.source, ", ".join(quantized))
        )
    generators = built.generators()
    pairs = [
        (generators[i], generators[j])
        for i in range(len(generators))
        for j in range(i, len(generators))
    ]
    outcome = gr_correspondence_check(built, pairs)
    mismatches = [
        "[%s, %s]" % (pair.left, pair.right)
        for pair in outcome.pairs
        if not pair.matches
    ]
    report = {
        "nu": built.nu,
        "pairs": len(pairs),
        "all_match": outcome.all_match,
        "mismatches": mismatches,
        "predicted_a": [str(p) for p in outcome.predicted.a],
    }
    lines = [
        "nu: %d" % built.nu,
        "pairs: %d" % len(pairs),
        "predicted parameters: %s" % ", ".join(str(p) for p in outcome.predicted.a),
        "all_match: %s" % ("true" if outcome.all_match else "false"),
    ]
    lines.extend("  mismatch: %s" % entry for entry in mismatches)
    return report, "\n".join(lines)


def _cmd_gallery(args) -> tuple[dict, str]:
    if args.name is None:
        names = [entry.listed for entry in GALLERY]
        return {"names": names}, "\n".join(names)
    entry = resolve_gallery(args.name)
    if entry is None:
        raise GwpaError(
            "unknown gallery name %r (choose from %s)" % (args.name, GALLERY_HELP)
        )
    algebra, meta = entry
    export = spec_from_gwa if isinstance(algebra, GWAData) else spec_from_gwpa
    text = render_algebra_spec(export(algebra, gallery=meta))
    return {"name": args.name, "spec": json.loads(text)}, text.rstrip("\n")


def _nonnegative_int(text: str) -> int:
    value = _int(text, argparse.ArgumentTypeError, "expected an integer, got %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


_SOURCE = ("source", {"help": "spec file path or gallery name"})
_DEGREE = (
    "--degree",
    {"type": _nonnegative_int, "default": 6, "help": "base degree bound (default 6)"},
)
_VECTOR = ("--alpha", {"help": "grading degree vector, comma separated (default all zero)"})
_WINDOW = ("--alpha", {"help": "grading window bound (default 4)"})
_OPERANDS = (("left", {}), ("right", {}))
_ELEMENTS = ("generators", {"nargs": "+", "metavar": "element"})
_NAME = ("name", {"nargs": "?"})
_FORMAT = (
    "--format",
    {"choices": ("text", "json"), "default": "text", "help": "output format (default text)"},
)

#: Every command, declared once: name, help text, handler, and the
#: ``add_argument`` specs of its arguments in order; ``--format`` follows
#: them.  A handler returns the report, which ``main`` prints as JSON with
#: the command's name added, and the text output.
_COMMANDS = (
    ("validate", "parse and validate an algebra", _cmd_validate, (_SOURCE,)),
    ("bracket", "Poisson bracket or commutator", _cmd_bracket, (_SOURCE, *_OPERANDS)),
    ("mul", "product in normal form", _cmd_mul, (_SOURCE, *_OPERANDS)),
    (
        "centre",
        "centre component in one grading degree",
        _cmd_centre,
        (_SOURCE, _DEGREE, _VECTOR),
    ),
    ("field-check", "is the centre a field", _cmd_field_check, (_SOURCE, _DEGREE, _WINDOW)),
    ("simple", "Poisson simplicity criterion", _cmd_simple, (_SOURCE, _DEGREE, _WINDOW)),
    ("closure", "bounded Poisson ideal closure", _cmd_closure, (_SOURCE, _DEGREE, _ELEMENTS)),
    ("quantize-check", "graded correspondence check", _cmd_quantize_check, (_SOURCE,)),
    ("gallery", "list gallery names or print one spec", _cmd_gallery, (_NAME,)),
)


@functools.cache  # built by the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwpa",
        description="exact computations in generalized Weyl Poisson algebras",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, help_text, handler, arguments in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, options in arguments + (_FORMAT,):
            command.add_argument(flag, **options)
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if getattr(args, "degree", 0) > MAX_DEGREE:
            raise GwpaError(
                "--degree %d exceeds the cap of %d" % (args.degree, MAX_DEGREE)
            )
        report, text = args.handler(args)
    except (GwpaError, OSError) as exc:
        failure = exc
        while failure is not None and not isinstance(failure, ValidationFailure):
            failure = failure.__cause__
        if isinstance(failure, ValidationFailure):
            print("error: invalid algebra data", file=sys.stderr)
            for violation in failure.report.violations:
                print("  %s" % violation, file=sys.stderr)
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        text = json.dumps({"command": args.command, **report}, indent=2, sort_keys=True)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: send what is still buffered to devnull, so the
        # flush at exit raises nothing (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
