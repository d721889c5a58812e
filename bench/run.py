"""gwpa benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload {gr-sweep,closure,axioms,centre-cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/gwpa``.  The workload runs
in its own fresh single-threaded Python process (``worker.py``).  With
``--trace 0`` the set-up time is also measured in separate processes and
the result carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is ``{"context": {...}}``: Python version, nproc,
git revision, source hash, seed, item counts, digests and failure rate.
``--record`` runs one untraced pass and stores its answer digest in
``digests.json`` as the reference for that seed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
DIGESTS = os.path.join(BENCH, "digests.json")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("gr-sweep", "closure", "axioms", "centre-cli")
SETUP_PROBES = 4  # set-up probes before, and again after, the timed worker
DEADLINE = 170.0  # seconds; the whole invocation must end well within 180

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: layer name, then the statistics reported for it.
LAYERS = (
    ("poly.mul", ("calls", "self_s", "term_pairs")),
    ("poly.add", ("calls", "self_s")),
    ("poisson.derivation", ("calls", "self_s")),
    ("poisson.bracket", ("calls", "self_s")),
    ("engine.mul", ("calls", "self_s")),
    ("engine.bracket", ("calls", "self_s", "term_pairs")),
    ("engine.total_degree", ("calls",)),
    ("quant.gwa_mul", ("calls", "self_s")),
    ("quant.apply_sigma", ("calls", "self_s")),
    ("quant.degree", ("calls", "self_s")),
    ("quant.homogeneous_part", ("calls", "self_s")),
    ("quant.correspondence", ("self_s",)),
    ("centre.closure", ("calls", "self_s", "dimension", "overflow")),
    ("centre.kernel", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s", "cells")),
    ("linalg.rref", ("calls", "self_s")),
    ("simplicity.check", ("calls", "self_s")),
    ("parser.parse", ("calls", "self_s")),
    ("specfile.parse", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)

PER_LAYER = tuple(
    ("%s.%s" % (layer, stat), "s" if stat == "self_s" else "count")
    for layer, stats in LAYERS
    for stat in stats
) + (("trace.overhead_ratio", "ratio"),)

# Layers each workload must reach in the traced run; a layer with no call
# there means a wrapper was bypassed (for example a missed rebinding).
COVERAGE = {
    "gr-sweep": (
        "poly.mul", "poly.add", "poisson.derivation", "poisson.bracket",
        "engine.bracket", "quant.gwa_mul", "quant.apply_sigma", "quant.degree",
        "quant.homogeneous_part", "quant.correspondence",
    ),
    "closure": (
        "poly.mul", "poly.add", "engine.mul", "engine.bracket",
        "engine.total_degree", "centre.closure",
    ),
    "axioms": (
        "poly.mul", "poly.add", "poisson.derivation", "poisson.bracket",
        "engine.mul", "engine.bracket",
    ),
    "centre-cli": (
        "poly.mul", "centre.kernel", "linalg.nullspace", "linalg.rref",
        "simplicity.check", "centre.closure", "parser.parse", "specfile.parse",
        "cli.main",
    ),
}


def fail(message: str) -> int:
    print("bench: %s" % message, file=sys.stderr)
    return 1


def worker_command(args, *extra) -> list[str]:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd + list(extra)


def measure_setup(args, probes: int) -> list[float]:
    """Process start to first item ready, once per fresh process."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            worker_command(args, "--setup-only"), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n%s" % err)
        times.append(elapsed)
    return times


def run_worker(args, timeout: float) -> dict:
    cmd = worker_command(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError("worker exited with %s" % proc.returncode)
    return json.loads(lines[-1])


def pass_digest(hashes) -> str:
    return hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()


def load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def source_hash() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "gwpa")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def count_failures(passes, reference, labels) -> tuple[int, int]:
    """Failed items: raised or failed a self-check, or their answer differs
    from the first pass or from the recorded reference for this seed."""
    first = passes[0]["hashes"]
    expected = reference["items"] if reference else None
    if expected is not None and len(expected) != len(first):
        print("bench: the reference has %d items, the run %d"
              % (len(expected), len(first)), file=sys.stderr)
    attempted = failed = 0
    for n, record in enumerate(passes):
        bad = set(record["bad"])
        for k, h in enumerate(record["hashes"]):
            attempted += 1
            if (
                k in bad
                or h != first[k]
                or (expected is not None and (len(expected) != len(first) or h != expected[k]))
            ):
                failed += 1
                if failed <= 5:
                    print("bench: pass %d item %r failed" % (n, labels[k]), file=sys.stderr)
    return attempted, failed


def best_latencies(records) -> list[float]:
    """Each item's shortest time over the given passes."""
    return [min(column) for column in zip(*(r["latencies"] for r in records))]


def end_to_end(passes, setup_times, peak_rss_kb) -> dict:
    per_item = best_latencies(passes)
    p90 = statistics.quantiles(per_item, n=10)[-1] if len(per_item) > 1 else per_item[0]
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(per_item) / sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1000.0,
        "item_p90_ms": p90 * 1000.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes, workload) -> tuple[dict, list[str]]:
    traced = [r for r in passes if r["traced"]]
    plain = [r for r in passes if not r["traced"]]
    first = traced[0]
    values = {}
    for layer, stats in LAYERS:
        calls, _, _ = first["stats"].get(layer, (0, 0.0, 0.0))
        for stat in stats:
            name = "%s.%s" % (layer, stat)
            if stat == "calls":
                values[name] = calls
            elif stat == "self_s":
                values[name] = statistics.median(
                    r["stats"].get(layer, (0, 0.0, 0.0))[2] for r in traced)
            else:
                values[name] = first["counts"].get(name, 0)
    values["trace.overhead_ratio"] = sum(best_latencies(traced)) / sum(best_latencies(plain))
    missing = [layer for layer in COVERAGE[workload]
               if first["stats"].get(layer, (0,))[0] == 0]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, missing


def write_spans(result, args) -> str:
    """Spans of the first traced pass, one JSON object per line."""
    traced = [r for r in result["passes"] if r["traced"]][0]
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as handle:
        for trace_id, span, parent, name, start, end in traced["spans"]:
            handle.write(json.dumps({"trace": trace_id, "span": span, "parent": parent,
                                     "name": name, "start_s": start, "end_s": end}) + "\n")
    return os.path.relpath(path, ROOT)


def record_reference(args) -> int:
    result = run_worker(args, DEADLINE)
    hashes = result["passes"][0]["hashes"]
    if result["passes"][0]["bad"]:
        return fail("refusing to record: items failed their self-checks")
    digests = load_digests()
    digests.setdefault(args.workload, {})[str(args.seed)] = {
        "digest": pass_digest(hashes), "items": hashes}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %s seed %d: %s" % (args.workload, args.seed, pass_digest(hashes)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gwpa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test; no reference digest")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its digest as the reference")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "gwpa", "__init__.py")):
        return fail("no src/gwpa under %s; run from a checkout of the repository" % ROOT)
    try:
        if args.record:
            if args.tiny or args.trace:
                return fail("--record takes neither --tiny nor --trace 1")
            args.seconds = 0
            return record_reference(args)
        # Set-up probes run before the timed worker and again after it, so
        # one burst of load on a shared machine does not hit them all.
        probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
        setup_times = measure_setup(args, probes)
        result = run_worker(args, DEADLINE - (time.perf_counter() - started))
        setup_times += measure_setup(args, probes)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    passes = result["passes"]
    reference = None if args.tiny else load_digests().get(args.workload, {}).get(str(args.seed))
    attempted, failed = count_failures(passes, reference, result["labels"])
    digest = pass_digest(passes[0]["hashes"])
    context = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "items_per_pass": result["items_per_pass"],
        "passes": len(passes),
        "traced_passes": sum(1 for r in passes if r["traced"]),
        "items_attempted": attempted,
        "items_failed": failed,
        "fail_rate": failed / attempted,
        "digest": digest,
        "reference_digest": reference["digest"] if reference else None,
        "setup_probes": setup_times,
    }
    correct = failed == 0
    if args.trace:
        metrics, missing = per_layer(passes, args.workload)
        context["coverage_missing"] = missing
        context["spans_file"] = write_spans(result, args)
        if missing:
            print("bench: traced run reached no call of %s" % ", ".join(missing),
                  file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(passes, setup_times, result["peak_rss_kb"])
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
