"""Tests of the benchmark itself: python3 -m pytest -q bench

The subprocess tests run every workload at the tiny size, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(tmp_root, *args):
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=tmp_root, capture_output=True, text=True, timeout=120)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    yield
    for op in workloads.build_ops("atlas-render", "tiny"):
        if op.out is not None and os.path.exists(op.out):
            os.remove(op.out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced_prints_every_end_to_end_metric(workload):
    result = result_of(bench(run.ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                             "--trace", "0", "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == len(workloads.build_ops(workload, "tiny"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = result_of(bench(run.ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                             "--trace", "1", "--tiny"))
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # The layers' self times, cli.main included, account for the traced wall time.
    self_time = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert self_time >= 0.9 * metrics["trace.wall_s"]


def test_search_counts_repeat_across_seeds():
    runs = [result_of(bench(run.ROOT, "--workload", "search", "--seed", str(seed), "--seconds", "0",
                            "--trace", "1", "--tiny"))["metrics"] for seed in (1, 2)]
    counts = [{k: m["value"] for k, m in r.items() if not k.endswith("_s")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["search.candidates"] > counts[0]["search.exact_checks"] > counts[0]["search.accepted"] > 0


def test_corrupted_golden_is_a_failed_op(in_root):
    ops = workloads.build_ops("verify-large", "tiny") + workloads.build_ops("atlas-render", "tiny")
    goldens = workloads.load_goldens()
    assert run.run_pass(ops, goldens)[2] == [None] * len(ops)

    verify_op = next(op for op in ops if op.kind == "verify")
    atlas_op = next(op for op in ops if op.out is not None)
    goldens[verify_op.name] = dict(goldens[verify_op.name], stdout="0" * 64)
    goldens[atlas_op.name] = dict(goldens[atlas_op.name], file="0" * 64)
    errors = run.run_pass(ops, goldens)[2]
    failed = {op.name for op, error in zip(ops, errors) if error is not None}
    assert failed == {verify_op.name, atlas_op.name}


def test_wrong_search_oracle_is_a_failed_op(in_root, monkeypatch):
    ops = workloads.build_ops("search", "tiny")
    right = workloads.search_oracle
    monkeypatch.setattr(workloads, "search_oracle", lambda *args: right(*args)[1:])
    errors = run.run_pass(ops, workloads.load_goldens())[2]
    failed = {op.name for op, error in zip(ops, errors) if error is not None}
    expected = {op.name for op in ops if right(*op.search)}
    assert failed == expected and expected


def test_unexpected_exit_code_is_a_failed_op(in_root):
    op = workloads.build_ops("verify-large", "tiny")[-1]
    assert op.expect_rc == 1
    wrong = workloads.Op(op.name, op.argv, op.kind, op.work, 0, op.verdict)
    errors = run.run_pass([op, wrong], workloads.load_goldens())[2]
    assert errors[0] is None and errors[1].startswith("exit code 1")


def test_reference_clock_samples_during_an_op_and_restores_the_timer():
    clock = run.ReferenceClock()
    previous = signal.getsignal(signal.SIGALRM)
    with clock.during():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.samples) >= 4 and clock.spent[0] > 0
    wall, cpu = clock.take()
    assert wall > 0 and cpu > 0 and clock.samples == []


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["verify.packing_window_verify", 1.0, 7.0, 0, 0],
        ["staircase.lattice_window", 1.0, 2.0, 1, 0],
        ["verify.value_floor", 5.0, 6.5, 1, 0],
    ]
    stats = tracing.layer_stats(spans)
    assert stats["cli.main"] == {"calls": 1, "self_s": 4.0}
    assert stats["verify.packing_window_verify"] == {"calls": 1, "self_s": 3.5}
    assert stats["verify.value_floor"]["self_s"] == 1.5


def test_tracer_uninstall_restores_every_module():
    import qpacking.cli
    import qpacking.verify

    originals = (qpacking.cli.main, qpacking.verify.lattice_window, qpacking.verify.value_floor)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qpacking.verify.lattice_window is not originals[1]
    finally:
        tracer.uninstall()
    assert (qpacking.cli.main, qpacking.verify.lattice_window, qpacking.verify.value_floor) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
