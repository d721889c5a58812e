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
    ring = algebra.base_ring
    report = {
        "command": "validate",
        "kind": kind,
        "variables": list(ring.variables),
        "rank": algebra.rank,
        "ok": True,
    }
    text = "\n".join(
        [
            "kind: %s" % kind,
            "variables: %s" % ", ".join(ring.variables),
            "rank: %d" % algebra.rank,
            "ok: true",
        ]
    )
    return report, text


def _cmd_bracket(args) -> tuple[dict, str]:
    _, algebra = _resolve(args.source)
    u = parse_element(args.left, algebra)
    v = parse_element(args.right, algebra)
    rendered = str(u.commutator(v) if isinstance(algebra, GWAData) else u.bracket(v))
    return {"command": "bracket", "result": rendered}, rendered


def _cmd_mul(args) -> tuple[dict, str]:
    _, algebra = _resolve(args.source)
    u = parse_element(args.left, algebra)
    v = parse_element(args.right, algebra)
    rendered = str(u * v)
    return {"command": "mul", "result": rendered}, rendered


def _cmd_centre(args) -> tuple[dict, str]:
    algebra = _poisson_algebra(args.source)
    alpha = _parse_alpha_vector(args.alpha, algebra.rank)
    component = centre_component(algebra, alpha, args.degree)
    rendered = [
        str(algebra.element({alpha: poly})) for poly in component.basis
    ]
    report = {
        "command": "centre",
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
        "command": "field-check",
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
        "command": "simple",
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
        "command": "closure",
        "degree": args.degree,
        "contains_unit": result.contains_unit,
        "dimension": len(result.basis),
        "overflow": result.overflow,
        "stopped_early": result.stopped_early,
    }
    text = "\n".join(
        [
            "degree: %d" % args.degree,
            "contains_unit: %s" % ("true" if result.contains_unit else "false"),
            "dimension: %d" % len(result.basis),
            "overflow: %d" % result.overflow,
            "stopped_early: %s" % ("true" if result.stopped_early else "false"),
        ]
    )
    return report, text


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
        "command": "quantize-check",
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
        report = {"command": "gallery", "names": names}
        return report, "\n".join(names)
    entry = resolve_gallery(args.name)
    if entry is None:
        raise GwpaError(
            "unknown gallery name %r (choose from %s)" % (args.name, GALLERY_HELP)
        )
    algebra, meta = entry
    export = spec_from_gwa if isinstance(algebra, GWAData) else spec_from_gwpa
    text = render_algebra_spec(export(algebra, gallery=meta))
    report = {"command": "gallery", "name": args.name, "spec": json.loads(text)}
    return report, text.rstrip("\n")


def _nonnegative_int(text: str) -> int:
    value = _int(text, argparse.ArgumentTypeError, "expected an integer, got %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


@functools.cache  # built by the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwpa",
        description="exact computations in generalized Weyl Poisson algebras",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, source=True, degree=False, alpha=None):
        if source:
            p.add_argument("source", help="spec file path or gallery name")
        if degree:
            p.add_argument(
                "--degree",
                type=_nonnegative_int,
                default=6,
                help="base degree bound (default 6)",
            )
        if alpha:
            p.add_argument("--alpha", default=None, help=alpha)
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )
        return p

    common(sub.add_parser("validate", help="parse and validate an algebra"))

    p = common(sub.add_parser("bracket", help="Poisson bracket or commutator"))
    p.add_argument("left")
    p.add_argument("right")

    p = common(sub.add_parser("mul", help="product in normal form"))
    p.add_argument("left")
    p.add_argument("right")

    common(
        sub.add_parser("centre", help="centre component in one grading degree"),
        degree=True,
        alpha="grading degree vector, comma separated (default all zero)",
    )
    common(
        sub.add_parser("field-check", help="is the centre a field"),
        degree=True,
        alpha="grading window bound (default 4)",
    )
    common(
        sub.add_parser("simple", help="Poisson simplicity criterion"),
        degree=True,
        alpha="grading window bound (default 4)",
    )
    p = common(
        sub.add_parser("closure", help="bounded Poisson ideal closure"),
        degree=True,
    )
    p.add_argument("generators", nargs="+", metavar="element")

    common(sub.add_parser("quantize-check", help="graded correspondence check"))

    p = common(
        sub.add_parser("gallery", help="list gallery names or print one spec"),
        source=False,
    )
    p.add_argument("name", nargs="?", default=None)
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "bracket": _cmd_bracket,
    "mul": _cmd_mul,
    "centre": _cmd_centre,
    "field-check": _cmd_field_check,
    "simple": _cmd_simple,
    "closure": _cmd_closure,
    "quantize-check": _cmd_quantize_check,
    "gallery": _cmd_gallery,
}


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
        report, text = _HANDLERS[args.command](args)
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
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
