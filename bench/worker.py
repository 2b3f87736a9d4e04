"""One benchmark run in a fresh interpreter; started by bench/run.py.

    python3 bench/worker.py --workload W --seed N --seconds S
    python3 bench/worker.py --workload W --seed N --cycles C [--trace FILE]

With --seconds, whole cycles run until S seconds have passed.  With
--cycles, exactly C cycles run, so every work counter repeats exactly for a
fixed seed; --trace installs the tracer and writes its spans to FILE.

Prints one JSON object on its last stdout line: items attempted, failures,
per-item latencies of the certified items, elapsed time and peak RSS, plus
the per-layer metrics when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gibonacci  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--cycles", type=int)
    ap.add_argument("--trace", metavar="FILE")
    args = ap.parse_args(argv)
    if not os.path.abspath(gibonacci.__file__).startswith(SRC + os.sep):
        print(f"imported gibonacci from {gibonacci.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()

    attempted = 0
    latencies_ms = []
    failures = []
    stream = workloads.cycles(args.workload, args.seed)
    clock = time.perf_counter
    start = clock()
    done_cycles = 0
    while True:
        for kind, item in next(stream):
            run = workloads.RUNNERS[kind]
            t0 = clock()
            try:
                if tr is None:
                    run(item)
                else:
                    tr.item(attempted, kind, lambda: run(item))
            except Exception:  # an item that raises is a failed item
                failures.append(f"{kind} {item!r}\n{traceback.format_exc(limit=-2)}")
            else:
                latencies_ms.append((clock() - t0) * 1e3)
            attempted += 1
        done_cycles += 1
        if args.cycles is not None and done_cycles >= args.cycles:
            break
        if args.seconds is not None and clock() - start >= args.seconds:
            break
    elapsed = clock() - start

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": done_cycles,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "elapsed_s": elapsed,
        "latencies_ms": latencies_ms,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr is not None:
        result["per_layer"] = tr.metrics()
        with open(args.trace, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **tr.dump()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
