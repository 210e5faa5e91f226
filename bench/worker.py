"""Runs one workload as a closed loop in this process and writes the results.

Usage: python3 bench/worker.py SPECS_JSON RESULT_JSON SECONDS TRACE

Every pass runs the same operations in order, each one starting when the
previous one has returned.  Passes repeat while another one fits in SECONDS
(at least one pass, or one untraced and one traced pass with TRACE=1).  With
TRACE=1 passes alternate untraced and traced, so the tracing overhead is
measured under the same machine conditions.  Each answer is checked after
its operation's timer stops.  A timer signal takes a reference sample of
the machine's speed (reference.py) every 20 ms, inside operations too, and
every latency is also kept in reference units: divided by the mean sample
over its interval.  The handler's time is left out of latencies and traced
spans.  Memory is the peak resident set of the first pass above the floor
the worker has once the program is imported and the inputs built; later
passes would add the growth of the benchmark's own records to it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import SpeedSampler  # noqa: E402


def run_pass(ops, sampler: SpeedSampler, tracer=None) -> dict:
    """One pass over `ops`: latencies and reference samples (ns), failures, trace data.

    A latency excludes the time the sampler's signal handler took inside it.
    """
    latencies = []
    intervals = []
    failures = []
    first_sample = len(sampler.samples)
    sampler.sample()
    if tracer is not None:
        tracer.reset()
    for op in ops:
        if op.artifact is not None:
            op.artifact.unlink(missing_ok=True)
        error = None
        result = None
        if tracer is not None:
            tracer.begin_op()
        stolen = sampler.stolen_ns
        start = perf_counter_ns()
        try:
            result = op.call()
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            error = exc
        finally:
            end = perf_counter_ns()
            if tracer is not None:
                tracer.end_op()
        latencies.append(end - start - (sampler.stolen_ns - stolen))
        intervals.append((start, end))
        if error is not None:
            failures.append(f"{op.label}: raised {error!r}")
            continue
        try:
            ok = op.check(result)
        except Exception as exc:  # a check that cannot run is a wrong answer
            ok = False
            error = exc
        if not ok:
            failures.append(f"{op.label}: wrong answer" + (f" ({error!r})" if error else ""))
    sampler.sample()
    out = {
        "latencies_ns": latencies,
        "reference_ns": sampler.samples[first_sample:],
        "relative": [ns / sampler.unit(*span) for ns, span in zip(latencies, intervals)],
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_seconds(tracer.spans)
        out["counts"] = {name: tracer.counts[name] for name in tracing.COUNTS}
        out["span_count"] = len(tracer.spans)
    return out


def rss_kib() -> int:
    """This process's resident set now, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


def run(specs: list[dict], work_dir: Path, seconds: float, traced: bool) -> tuple[dict, list]:
    ops = workloads.build_ops(specs, work_dir)
    sampler = SpeedSampler()
    # Span times leave out the time the sampler's signal handler took.
    tracer = tracing.Tracer(lambda: perf_counter_ns() - sampler.stolen_ns) if traced else None
    passes = []
    last_spans: list = []
    gc.collect()
    floor_kib = rss_kib()
    start = perf_counter()
    with sampler:
        while True:
            pass_start = perf_counter()
            trace_this = traced and len(passes) % 2 == 1
            if trace_this:
                tracer.install()
                try:
                    record = run_pass(ops, sampler, tracer)
                finally:
                    tracer.remove()
                last_spans = tracer.spans
            else:
                record = run_pass(ops, sampler)
            record["traced"] = trace_this
            passes.append(record)
            if len(passes) == 1:
                first_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # Start another pass only if one like the last still fits in SECONDS.
            now = perf_counter()
            enough = len(passes) >= (2 if traced else 1)
            if enough and now - start + (now - pass_start) > seconds:
                break
    result = {
        "passes": passes,
        "first_pass_peak_rss_kib": first_peak_kib,
        "floor_rss_kib": floor_kib,
    }
    return result, last_spans


def main(argv: list[str]) -> int:
    specs_path, result_path, seconds, traced = argv
    specs = json.loads(Path(specs_path).read_text(encoding="utf-8"))
    work_dir = Path(result_path).parent / "ops"
    result, spans = run(specs, work_dir, float(seconds), traced == "1")
    if traced == "1":
        spans_path = Path(result_path).with_suffix(".spans.json")
        with spans_path.open("w", encoding="utf-8") as fh:
            json.dump({"layers": tracing.LAYERS, "spans": spans}, fh)
        result["spans_file"] = str(spans_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
