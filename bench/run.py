"""Benchmark of the gibonacci library: certified answers per second and per item.

    python3 bench/run.py --workload roots-certify --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
roots-certify, game-predict, posets-enumerate.

--trace 0 measures the end-to-end metrics: one fresh interpreter runs whole
cycles of seeded items in a closed loop (one caller, each item sent after the
previous one finished) for --seconds, and set-up time is measured in
separate fresh interpreters.  --trace 1 runs a fixed number of cycles (sized
from --seconds) once traced and once untraced, each in a fresh interpreter,
and reports the per-layer metrics plus the tracing overhead; its spans are
written to bench/out/.

Prints a readable table, then, as the last stdout line, one JSON object with
the keys correct, attempted, failed and metrics.  Exits non-zero without a
result when the library or a run is missing or broken.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Cold imports timed per run for setup_s, half before and half after the
# workload so that one slow spell of the machine does not set the median; an
# untimed warm-up import first writes the bytecode cache.
SETUP_REPEATS = 8
# Traced seconds per cycle, measured with Python 3.11 on a 2-vCPU x86-64 VM
# when the workloads were defined.  A traced run holds about --seconds/2 of
# traced work, so with its untraced replay it ends within about --seconds.
TRACED_CYCLE_S = {"roots-certify": 2.0, "game-predict": 1.2, "posets-enumerate": 3.3}
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def labelled(values: dict, section: str) -> dict:
    """{name: {"value", "unit"}} for the metrics of a BENCHMARK.json section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value measured for {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # a fixed hash seed keeps set iteration order, and so every work
    # counter, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd: list, timeout: float) -> str:
    """Run a child to completion (killing it on timeout) and return stdout."""
    with subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{' '.join(cmd)} timed out after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def time_setup(repeats: int) -> list:
    """Wall times from a fresh interpreter to `import gibonacci` done."""
    cmd = [sys.executable, "-c", "import gibonacci"]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run(cmd, 60)
        samples.append(time.perf_counter() - t0)
    return samples


def run_worker(workload: str, seed: int, *limit: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    out = _run(cmd + ["--seed", str(seed), *limit], WORKER_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def _quantile(values: list, q: int) -> float:
    """q-th percentile (inclusive method) of the item latencies."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    time_setup(1)
    setup = time_setup(SETUP_REPEATS)
    run = run_worker(workload, seed, "--seconds", str(seconds))
    setup += time_setup(SETUP_REPEATS)
    lat = run["latencies_ms"]
    metrics = {
        "items_per_s": len(lat) / run["elapsed_s"],
        "item_ms.p50": _quantile(lat, 50),
        "item_ms.p90": _quantile(lat, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
        "certified_share": len(lat) / run["attempted"],
    }
    return run, labelled(metrics, "end_to_end")


def traced(workload: str, seed: int, seconds: float) -> tuple:
    cycles = max(1, round(seconds / 2 / TRACED_CYCLE_S[workload]))
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    run = run_worker(workload, seed, "--cycles", str(cycles), "--trace", trace_file)
    plain = run_worker(workload, seed, "--cycles", str(cycles))
    values = dict(run["per_layer"])
    values["trace.overhead"] = (run["attempted"] / run["elapsed_s"]) / (
        plain["attempted"] / plain["elapsed_s"]
    )
    return run, labelled(values, "per_layer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACED_CYCLE_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gibonacci", "__init__.py")):
        print(f"bench: no gibonacci package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            run, metrics = traced(args.workload, args.seed, args.seconds)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for message in run["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    fail_share = run["failed"] / run["attempted"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {run['attempted']} items "
        f"in {run['cycles']} cycles, {run['failed']} failed (fail_share={fail_share:g})"
    )
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
