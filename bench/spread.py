"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --workload roots-certify --seeds 1-5
    python3 bench/spread.py --all --seeds 1-10 --write bench/baseline.json
    python3 bench/spread.py --all --trace 1 --seeds 21,21 --write bench/baseline_counters.json

Runs bench/run.py once per seed (one run at a time) and reports, for each
end-to-end metric, the median and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound from BENCHMARK.json.  A spread above a third of its
bound is flagged.  --trace 1 instead runs the first seed once per listed
seed and checks that the deterministic work counters repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Work counters that must repeat exactly for a fixed seed.
EXACT_COUNTERS = (
    "exactnum.poly_eval.calls",
    "exactnum.refined.calls",
    "exactnum.sturm_chain.max_coeff_bits",
    "game.rows_scanned",
    "posets.elements_built",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def end_to_end(spec: dict, workload: str, seeds: list) -> dict:
    runs = []
    for seed in seeds:
        result = bench(workload, seed, spec["run_seconds"], 0)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} items failed")
        runs.append(result)
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    out = {"seeds": seeds, "attempted": [r["attempted"] for r in runs], "metrics": {}}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median, q1, q3, share = spread(values)
        flag = "  <-- above bound/3" if share > m["bound"] / 3 else ""
        print(f"  {m['name']:16s} median {median:<12.6g} {m['unit']:6s} IQR/median "
              f"{share:.4f} (bound {m['bound']}){flag}")
        out["metrics"][m["name"]] = {
            "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr_share": share, "bound": m["bound"], "values": values,
        }
    return out


def counters_repeat(spec: dict, workload: str, seed: int, repeats: int) -> dict:
    runs = [bench(workload, seed, spec["run_seconds"], 1)["metrics"] for _ in range(repeats)]
    counters = {name: [r[name]["value"] for r in runs] for name in EXACT_COUNTERS}
    for name, values in counters.items():
        state = "exact" if len(set(values)) == 1 else "DIFFERS"
        print(f"  {name:40s} {values[0]!s:>14} {state}")
    overhead = [r["trace.overhead"]["value"] for r in runs]
    print(f"  trace.overhead {', '.join(f'{v:.3f}' for v in overhead)}")
    return {"seed": seed, "counters": {k: v[0] for k, v in counters.items()},
            "repeat_exactly": all(len(set(v)) == 1 for v in counters.values()),
            "trace_overhead": overhead}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1-10", help="range a-b or comma list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", metavar="FILE", help="also write the results as JSON")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    report = {
        "run_seconds": spec["run_seconds"],
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    for workload in names if args.all else [args.workload]:
        print(f"{workload} (trace {args.trace}, seeds {args.seeds})", flush=True)
        if args.trace:
            report["workloads"][workload] = counters_repeat(spec, workload, seeds[0], len(seeds))
        else:
            report["workloads"][workload] = end_to_end(spec, workload, seeds)
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
