"""Repeat the benchmark over ten seeds and summarise its spread.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--write bench/baseline.json]

For each workload of BENCHMARK.json it runs `bench/run.py --trace 0` once
per seed (seeds 1..10) and reports, per end-to-end metric, the median, the
quartiles and their distance as a share of the median, next to a third of
the metric's bound.  It then runs `--trace 1` twice on seed 1 and checks that
every count metric repeats exactly.  It exits with 1 if a spread reaches a
third of its bound, a count differs or an operation fails.  With --write it
stores the summary, the traced per-layer numbers and the machine facts as a
baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SEEDS = list(range(1, 11))
LABEL = "commit c1593e2: the program before any change measured by this benchmark"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "system": platform.system(),
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, help="baseline file to write")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    summary = {}
    steady = True
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for name in bounds:
            stats = spread([r["metrics"][name]["value"] for r in runs])
            metrics[name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            if stats["spread"] >= bounds[name] / 3:
                steady = False
            print(
                f"{workload:17s} {name:12s} median {stats['median']:.5g} "
                f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.3f} "
                f"(bound {bounds[name]}){flag}",
                flush=True,
            )
        traced = [run_once(workload, 1, seconds, 1) for _ in range(2)]
        counts_repeat = all(
            traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]
            for k, m in traced[0]["metrics"].items()
            if m["unit"] in ("count", "bits")
        )
        print(
            f"{workload:17s} failed {failed}/{sum(r['attempted'] for r in runs)}, "
            f"traced counts repeat exactly: {counts_repeat}",
            flush=True,
        )
        steady = steady and counts_repeat and failed == 0
        summary[workload] = {
            "seeds": SEEDS,
            "failed": failed,
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed_1": {k: m["value"] for k, m in traced[0]["metrics"].items()},
            "counts_repeat": counts_repeat,
        }
    if args.write:
        args.write.write_text(json.dumps({
            "label": LABEL,
            "machine": machine(),
            "run_seconds": seconds,
            "workloads": summary,
        }, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
