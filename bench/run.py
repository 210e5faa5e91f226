"""Benchmark of the exact solver, end to end (--trace 0) or layer by layer (--trace 1).

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: sweep, dense_cascade, resonant_windows, bessel_series (see
bench/README.md for why each one is here).  The seed fixes the inputs; the
program receives only the generated spectra, factors and factor files.  One
worker process runs the workload as a closed loop on one thread and checks
every answer outside the timed interval.  End-to-end times are reported in
reference units (reference.py), set-up time in seconds scaled to a nominal
machine speed (see `setup_samples`).  Human-readable lines come first;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh interpreters started per run to measure set-up time.
SETUP_SAMPLES = 11
# Iterations of `reference_work` in the reference process.
REFERENCE_PROCESS_WORK = 30
# About the reference process's median time on the machine of the first
# baseline (bench/README.md); setup_s is set-up time at that machine speed.
REFERENCE_PROCESS_S = 0.125
# The whole run must end within 180 s.
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def setup_samples() -> dict:
    """Fresh interpreter until `beltrami_jets.cli` is imported and its parser built.

    Each sample runs between two runs of a reference process: a fresh
    interpreter that runs `reference_work` REFERENCE_PROCESS_WORK times.  Its
    ratio to their mean is set-up time in reference processes; most of both
    is interpreter start-up, so the ratio does not move with the machine's
    speed.  `setup_s` is the median ratio times REFERENCE_PROCESS_S.
    """
    setup = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from beltrami_jets import cli; cli._build_parser()"
    )
    reference = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        "from reference import reference_work\n"
        f"for _ in range({REFERENCE_PROCESS_WORK}): reference_work()"
    )

    def seconds_of(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        return perf_counter() - start

    references = [seconds_of(reference)]
    seconds, ratios = [], []
    for _ in range(SETUP_SAMPLES):
        seconds.append(seconds_of(setup))
        references.append(seconds_of(reference))
        ratios.append(seconds[-1] / statistics.fmean(references[-2:]))
    return {"seconds": seconds, "ratios": ratios, "reference_s": references}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def relative_walls(passes: list[dict]) -> list[float]:
    """Each pass's wall in reference units (see reference.py)."""
    return [sum(p["relative"]) for p in passes]


def end_to_end(result: dict, setup: dict) -> tuple[dict, list[str]]:
    """`wall_ref` and `op_p50_ref` in reference units, memory above the floor, set-up time."""
    passes = result["passes"]
    rel_walls = relative_walls(passes)
    rel_latencies = [x for p in passes for x in p["relative"]]
    walls = [sum(p["latencies_ns"]) / 1e9 for p in passes]
    latencies = sorted(ns / 1e6 for p in passes for ns in p["latencies_ns"])
    reference_ms = statistics.median(ns for p in passes for ns in p["reference_ns"]) / 1e6
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "wall_ref": metric(statistics.median(rel_walls), "ref"),
        "op_p50_ref": metric(statistics.median(rel_latencies), "ref"),
        "peak_rss_above_floor_mb": metric(
            (result["first_pass_peak_rss_kib"] - result["floor_rss_kib"]) / 1024, "MB"
        ),
        "setup_s": metric(statistics.median(setup["ratios"]) * REFERENCE_PROCESS_S, "s"),
    }
    q1, median, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    lines = [
        f"{attempted} operations in {len(passes)} passes; "
        f"failed_ops {failed}/{attempted} = {failed / attempted:.4f}",
        f"wall_s per pass: median {median:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s",
        f"op_p50_ms {quantile(latencies, 50):.3f} ms (n = {attempted})",
    ]
    # A tail percentile is printed only with at least ten samples beyond it.
    for q, needed in ((90, 100), (99, 1000)):
        if attempted >= needed:
            lines.append(f"op_p{q}_ms {quantile(latencies, q):.3f} ms (n = {attempted})")
    lines += [
        f"reference unit: median {reference_ms:.3f} ms; "
        f"wall_ref {metrics['wall_ref']['value']:.2f}, "
        f"op_p50_ref {metrics['op_p50_ref']['value']:.4f}",
        f"setup_s {metrics['setup_s']['value']:.4f} s at the nominal speed "
        f"({statistics.median(setup['seconds']):.4f} s as run, median of "
        f"{len(setup['seconds'])} fresh interpreters; reference process "
        f"{statistics.median(setup['reference_s']):.4f} s as run)",
        f"peak_rss_above_floor_mb {metrics['peak_rss_above_floor_mb']['value']:.3f} MB "
        f"(first-pass peak {result['first_pass_peak_rss_kib'] / 1024:.1f} MB, "
        f"floor {result['floor_rss_kib'] / 1024:.1f} MB)",
    ]
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str], bool]:
    """Per-layer medians over traced passes; counts must repeat exactly."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = metric(
            statistics.median(p["layers"][layer] for p in traced), "s"
        )
    counts = traced[0]["counts"]
    repeat = all(p["counts"] == counts for p in traced)
    for name in tracing.COUNTS:
        metrics[name] = metric(counts[name], "bits" if name.endswith("_bits") else "count")
    rows_in = counts["linalg.echelon.rows_in"]
    metrics["linalg.echelon.useful_row_ratio"] = metric(
        counts["linalg.echelon.rank"] / rows_in if rows_in else 0.0, "ratio"
    )
    # Both walls at the run's median machine speed, so drift does not show as overhead.
    reference_s = statistics.median(
        ns / 1e9 for p in result["passes"] for ns in p["reference_ns"]
    )
    traced_wall = statistics.median(relative_walls(traced)) * reference_s
    plain_wall = statistics.median(relative_walls(plain)) * reference_s
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    metrics["trace.spans"] = metric(traced[0]["span_count"], "count")
    ranked = sorted(
        ((m["value"], name) for name, m in metrics.items() if name.endswith(".self_s")),
        reverse=True,
    )
    lines = [
        f"traced wall_s {traced_wall:.4f} s against untraced {plain_wall:.4f} s "
        f"({len(traced)} traced, {len(plain)} untraced passes)",
        "largest self times: "
        + ", ".join(f"{name} {value:.4f} s" for value, name in ranked[:5]),
    ]
    if not repeat:
        lines.append("count metrics differ between traced passes")
    return metrics, lines, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    if not (SRC / "beltrami_jets" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = setup_samples() if args.trace == 0 else None
    specs = workloads.generate(args.workload, args.seed)
    specs_path = work / "specs.json"
    specs_path.write_text(json.dumps(specs), encoding="utf-8")
    result_path = work / "result.json"
    worker = [
        sys.executable, str(BENCH / "worker.py"),
        str(specs_path), str(result_path), str(args.seconds), str(args.trace),
    ]
    try:
        subprocess.run(
            worker, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
            timeout=max(DEADLINE_S - (perf_counter() - started), 1.0),
        )
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    failures = [f for p in result["passes"] for f in p["failures"]]
    attempted = sum(len(p["latencies_ns"]) for p in result["passes"])
    if args.trace == 0:
        metrics, lines = end_to_end(result, setup)
        correct = not failures
    else:
        metrics, lines, repeat = per_layer(result)
        correct = not failures and repeat
        lines.append(f"spans of the last traced pass: {result['spans_file']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines + [f"FAILED {f}" for f in failures[:20]]:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
