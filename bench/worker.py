"""Run one workload in this process and print its raw results as JSON.

Started by ``run.py``, one fresh single-threaded process per workload run
(and one per set-up probe).  It imports gwpa from the checkout's ``src``,
builds the seeded inputs, prints ``ready`` and then runs closed-loop
passes, one item after another.  Every pass builds its inputs afresh, so
each does the same work from cold library caches.  A new pass starts only
while the previous pass's duration still fits in ``--seconds``.

With ``--trace 1`` untraced and traced passes alternate: the traced one
gives the per-layer statistics, the pair gives the tracing overhead, and
the answers of both must agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

perf_counter = time.perf_counter


def _short(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_pass(items, tracer=None, pass_index=0):
    """Run every item once; returns latencies, answer hashes and errors."""
    latencies, hashes, bad = [], [], []
    for k, item in enumerate(items):
        error = None
        start = perf_counter()
        try:
            if tracer is None:
                result = item.run()
            else:
                result = tracer.run_item("%d.%d" % (pass_index, k), item.run)
        except Exception:  # an item that raises is a failed item, not a crash
            error = traceback.format_exc()
        latencies.append(perf_counter() - start)
        if error is None:
            try:
                text, ok = item.check(result)
            except Exception:
                text, ok = traceback.format_exc(), False
        else:
            text, ok = error, False
        hashes.append(_short(text))
        if not ok:
            bad.append(k)
            if len(bad) <= 3:
                print("item %s failed its self-check:\n%s" % (item.label, text[:2000]),
                      file=sys.stderr)
    return latencies, hashes, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import gwpa
    import workloads

    if os.path.dirname(os.path.abspath(gwpa.__file__)) != os.path.join(SRC, "gwpa"):
        print("gwpa was not imported from %s" % SRC, file=sys.stderr)
        return 2
    items = workloads.build(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    # Each round of passes runs on the next CPU this process may use.  On a
    # shared host one vCPU is often slowed by other load while another is
    # not, and an item's shortest time over the passes then comes from the
    # less disturbed one.  Both passes of a traced round share a CPU.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    passes = []  # per pass: {"latencies", "hashes", "bad", "traced"}
    begin = perf_counter()
    rounds = 0
    while True:
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        rounds += 1
        round_start = perf_counter()
        modes = (False, True) if tracer is not None else (False,)
        for traced in modes:
            if passes:
                items = workloads.build(args.workload, args.seed, args.tiny)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                latencies, hashes, bad = run_pass(items, tracer if traced else None,
                                                  len(passes))
            finally:
                if traced:
                    tracer.uninstall()
            record = {"latencies": latencies, "hashes": hashes, "bad": bad,
                      "traced": traced}
            if traced:
                record["stats"] = tracer.stats
                record["counts"] = tracer.counts
                record["spans"] = tracer.spans
            passes.append(record)
        now = perf_counter()
        if now - begin + (now - round_start) > args.seconds:
            break

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "items_per_pass": len(items),
        "labels": [item.label for item in items],
        "passes": passes,
        "peak_rss_kb": usage.ru_maxrss,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
