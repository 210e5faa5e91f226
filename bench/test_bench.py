"""Tests of the benchmark itself: generators, tracing and the output contract.

Run from the root of a checkout with:  python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import SpeedSampler  # noqa: E402
import beltrami_jets.cli  # noqa: E402,F401  (loads every module of the program)
from beltrami_jets import linalg  # noqa: E402
from beltrami_jets.single_degree import SigmaTriple, assemble_single  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def answers(ops, tracer=None) -> list:
    """Each operation's answer, with CLI reports reduced to their digest."""
    out = []
    for op in ops:
        if op.artifact is not None:
            op.artifact.unlink(missing_ok=True)
        if tracer is not None:
            tracer.begin_op()
        try:
            result = op.call()
        finally:
            if tracer is not None:
                tracer.end_op()
        digest = op.artifact and hashlib.sha256(op.artifact.read_bytes()).hexdigest()
        out.append((repr(result), digest))
    return out


def traced(fn, *args):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer, fn(*args, tracer)
    finally:
        tracer.remove()


def bindings() -> dict:
    """id of every module attribute and class member in the program."""
    found = {}
    for module in tracing._package_modules():
        for name, value in vars(module).items():
            found[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found[(module.__name__, name, attr)] = id(member)
    return found


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload):
    first = workloads.generate(workload, 5, small=True)
    assert first == workloads.generate(workload, 5, small=True)
    others = [workloads.generate(workload, seed, small=True) for seed in range(6, 10)]
    assert any(other != first for other in others)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_the_untraced_answers(workload, tmp_path):
    ops = workloads.build_ops(workloads.generate(workload, 3, small=True), tmp_path)
    plain = answers(ops)
    tracer, with_trace = traced(answers, ops)
    assert with_trace == plain
    assert tracer.spans
    with SpeedSampler() as sampler:
        assert worker.run_pass(ops, sampler)["failures"] == []


def test_every_wrapper_is_removed_after_tracing(tmp_path):
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "beltrami_jets.single_degree.kernel_basis" in tracing.wrapped_bindings()
        assert "beltrami_jets.cascade.kernel_basis" in tracing.wrapped_bindings()
        assert "beltrami_jets.linalg.ConstraintMatrix.from_rows" in tracing.wrapped_bindings()
    finally:
        tracer.remove()
    assert tracing.wrapped_bindings() == []
    assert bindings() == before


def test_self_times_of_a_span_tree_sum_to_its_wall_time(tmp_path):
    ops = workloads.build_ops(workloads.generate("resonant_windows", 2, small=True), tmp_path)
    with SpeedSampler() as sampler:
        tracer, _ = traced(worker.run_pass, ops, sampler)
    spans = tracer.spans
    own = tracing.self_times(spans)
    assert min(own) >= 0
    subtree = list(own)
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][3]
        if parent >= 0:
            subtree[parent] += subtree[index]
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    assert len(roots) == len(ops)
    for root in roots:
        assert subtree[root] <= spans[root][2] - spans[root][1]
    assert sum(tracing.layer_seconds(spans).values()) <= sum(
        spans[r][2] - spans[r][1] for r in roots
    ) / 1e9


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0, 100, -1],
        ["linalg.backsub", 10, 60, 0],
        ["linalg.echelon", 20, 30, 1],
        ["trace.count", 60, 70, 0],
    ]
    assert tracing.self_times(spans) == [40, 40, 10, 10]
    layers = tracing.layer_seconds(spans)
    assert (layers["op"], layers["linalg.backsub"], layers["linalg.echelon"]) == (40e-9, 40e-9, 10e-9)
    assert sum(layers.values()) == 90e-9


def test_count_metrics_repeat_between_traced_passes(tmp_path):
    ops = workloads.build_ops(workloads.generate("sweep", 4, small=True), tmp_path)
    with SpeedSampler() as sampler:
        _, first = traced(worker.run_pass, ops, sampler)
        _, second = traced(worker.run_pass, ops, sampler)
    assert first["counts"] == second["counts"]
    assert first["span_count"] == second["span_count"]
    assert first["counts"]["assembly.rows"] > 0
    assert first["counts"]["linalg.kernel_dim"] == 2


def test_rank_mod_p_agrees_with_exact_rank_and_never_exceeds_it():
    for i, sigma in ((3, SigmaTriple(1, 1, -3)), (2, SigmaTriple(1, 2, -3)), (4, SigmaTriple(2, 3, 5))):
        matrix = assemble_single(i, sigma)
        assert workloads.rank_mod_p(matrix.row_dicts()) == linalg.rank(matrix)
    # p divides the only entry: rank 1 over Q, rank 0 mod p.
    assert workloads.rank_mod_p([{0: Fraction(workloads.PRIME)}]) == 0


def test_risky_rule():
    F = Fraction
    assert workloads.risky_degrees((F(1), F(1), F(-3))) == {3}
    assert workloads.risky_degrees((F(-5), F(2), F(-5))) == set()
    assert workloads.risky_degrees((F(2), F(-10), F(2))) == {5}
    assert workloads.risky_degrees((F(1), F(-1), F(5))) == {1}
    assert workloads.risky_degrees((F(1), F(2), F(-3))) == {2}
    assert workloads.risky_degrees((F(1, 2), F(3), F(7))) == set()


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    proc = run_bench(ROOT, "--workload", "resonant_windows", "--seed", "9", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_speed_unit_covers_the_interval_and_its_neighbours():
    sampler = SpeedSampler()
    sampler.NEIGHBOURS = 1
    sampler.starts = [0, 10, 20, 30, 40]
    sampler.samples = [1, 2, 3, 4, 5]
    assert sampler.unit(12, 18) == 2.5  # no sample inside: the one before and after
    assert sampler.unit(15, 35) == 3.5  # 20 and 30 inside, 10 and 40 beside
    assert sampler.unit(45, 50) == 5  # nothing after the last sample
    sampler.NEIGHBOURS = 2
    assert sampler.unit(22, 28) == 3.5  # 10 and 20 before, 30 and 40 after


def test_a_sample_started_during_another_is_skipped(monkeypatch):
    sampler = SpeedSampler()

    def nested_timer():
        sampler.sample()  # the timer firing inside a direct call
        return 7

    monkeypatch.setattr(reference, "reference_ns", nested_timer)
    sampler.sample()
    assert sampler.samples == [7]
    assert len(sampler.starts) == 1


def test_a_pass_records_latencies_in_reference_units(tmp_path):
    ops = workloads.build_ops(workloads.generate("sweep", 1, small=True), tmp_path)
    with SpeedSampler() as sampler:
        record = worker.run_pass(ops, sampler)
    assert len(record["latencies_ns"]) == len(record["relative"]) == len(ops)
    assert all(ns > 0 for ns in record["latencies_ns"])
    assert len(record["reference_ns"]) >= 2
