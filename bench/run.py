"""Benchmark of the qpacking command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-large --seed 1 --seconds 20 --trace 0

One client runs the workload's CLI operations in process, in a closed loop
(each op starts when the previous one has ended), pass after pass until
``--seconds`` have gone by; ops with ``--jobs 2`` start two worker processes.
Every op's output is checked.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.

Times of ops are given in units of a reference loop that the benchmark times
right before and after every untraced op, so that they do not move when the
shared machine's speed does.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
SETUP_RUNS = 9
# Wall time of one reference chunk on a core of the 2-core 2.0 GHz Xeon
# machine the benchmark was written on; it turns set-up time in reference
# units into seconds.
REF_CHUNK_NOMINAL_S = 0.0008
# A fresh interpreter times the import of the program between reference
# chunks and prints (import wall s, mean reference chunk wall s).
SETUP_CHILD = """
import time
import reference
clock = reference.ReferenceClock()
clock.block()
start = time.perf_counter()
with clock.during():
    import qpacking.cli
wall = time.perf_counter() - start - clock.spent[0]
clock.block()
print(wall, clock.take()[0])
"""

# The program is measured from this checkout's source tree and from nowhere
# else; without it the benchmark stops before measuring anything.
sys.path.insert(0, SRC)
try:
    import qpacking.cli as cli
except ImportError as exc:
    raise SystemExit(f"error: cannot import qpacking from {SRC}: {exc}") from exc
if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"error: qpacking was imported from {cli.__file__}, not from {SRC}")

import tracing  # noqa: E402  (both import qpacking)
import workloads  # noqa: E402
from reference import ReferenceClock  # noqa: E402


class BenchmarkBug(Exception):
    """The benchmark itself misbehaved, e.g. a count that must repeat varied."""


def measure_setup(runs: int) -> tuple[float, float]:
    """Median time of ``import qpacking.cli`` in a fresh interpreter, in
    seconds at the nominal reference speed and in plain seconds.

    The child times its own reference chunks around and during the import;
    chunks timed here would not follow the child's speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, BENCH)))
    scaled, plain = [], []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout
        wall, ref = map(float, out.split())
        plain.append(wall)
        scaled.append(wall / ref * REF_CHUNK_NOMINAL_S)
    return statistics.median(scaled), statistics.median(plain)


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_op(op, clock=None):
    """Run one op, sampling the reference speed during it when given a clock;
    returns (wall s, CPU s, exit code, stdout, error or None)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    sampling = clock.during() if clock is not None else contextlib.nullcontext()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        with sampling, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an op that raises counts as a failed op
        rc, error = None, traceback.format_exc(limit=4)
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if clock is not None:
        wall, cpu = wall - clock.spent[0], cpu - clock.spent[1]
    return wall, cpu, rc, stdout.getvalue(), error


def run_pass(ops, goldens, tracer=None):
    """One pass over the ops; checks run after the last op, outside any trace.

    Returns the ops' walls, CPU times and errors and, for an untraced pass,
    each op's reference (wall, CPU): the mean time of the reference chunks
    timed right before, during and right after the op.  Traced passes are not sampled."""
    outcomes, refs = [], []
    clock = ReferenceClock() if tracer is None else None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            if clock is not None:
                clock.block()
            outcomes.append(run_op(op, clock))
            if clock is not None:
                clock.block()
                refs.append(clock.take())
    finally:
        if tracer is not None:
            tracer.uninstall()
    walls, cpus, errors = [], [], []
    for op, (wall, cpu, rc, stdout, error) in zip(ops, outcomes):
        if error is None:
            try:
                error = workloads.check_op(op, rc, stdout, goldens)
            except OSError as exc:
                error = f"cannot read output: {exc}"
        walls.append(wall)
        cpus.append(cpu)
        errors.append(error)
    return walls, cpus, errors, refs


def pass_times(passes, n_ops: int) -> dict[str, float]:
    """Per-op medians over the untraced passes, summed: one typical pass.

    ``*_ref`` times are each op's time over the reference chunk's time around
    it; ``*_s`` are plain seconds, which move with the machine's speed."""
    def typical(value) -> float:
        return sum(statistics.median(value(p, i) for p in passes) for i in range(n_ops))

    return {
        "wall_ref": typical(lambda p, i: p[0][i] / p[2][i][0]),
        "cpu_ref": typical(lambda p, i: p[1][i] / p[2][i][1]),
        "wall_s": typical(lambda p, i: p[0][i]),
        "cpu_s": typical(lambda p, i: p[1][i]),
        "ref_chunk_s": statistics.median(ref[0] for p in passes for ref in p[2]),
    }


def end_to_end_metrics(times, ops, setup_s: float, attempted: int, failed: int) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_ref": times["wall_ref"],
        "cpu_ref": times["cpu_ref"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (attempted - failed) / attempted,
        "work_per_ref": sum(op.work for op in ops) / times["wall_ref"],
    }


def per_layer_metrics(traced, untraced) -> dict[str, float]:
    """Medians of the traced passes' layer figures; counts must repeat exactly."""
    first = traced[0]
    for other in traced[1:]:
        for name, value in first.items():
            if not name.endswith("_s") and other.get(name) != value:
                raise BenchmarkBug(f"count {name} varies between passes: {value} then {other.get(name)}")
    metrics = {name: statistics.median(m[name] for m in traced) if name.endswith("_s") else value
               for name, value in first.items()}
    metrics["trace.wall_s"] = statistics.median(m["trace.pass_s"] for m in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    return metrics


def run_record(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "qpacking")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qpacking CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="fixes the order of the ops in a pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to run passes; no pass starts that would end much later")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def measure(ops, goldens, seconds: float, tracer=None):
    """Passes back to back for ``seconds``; with a tracer, every second pass is
    traced.  After the first pass, none starts that would end more than half a
    pass after the deadline.  Returns the untraced passes' (walls, cpus, refs),
    the traced passes' layer figures, the last traced pass's (spans, origin),
    and the errors by op name."""
    plain, traced, last_spans, failures, durations = [], [], None, {}, []
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer if tracer is not None and len(plain) > len(traced) else None
        origin = time.perf_counter()
        walls, cpus, errors, refs = run_pass(ops, goldens, use_tracer)
        durations.append(time.perf_counter() - origin)
        if use_tracer is None:
            plain.append((walls, cpus, refs))
        else:
            layer = tracing.pass_metrics(tracer)
            layer["trace.pass_s"] = sum(walls)
            traced.append(layer)
            last_spans = (tracer.spans, origin)
        for op, error in zip(ops, errors):
            if error is not None:
                failures.setdefault(op.name, []).append(error)
        next_end = time.perf_counter() + statistics.median(durations) / 2
        if next_end >= deadline and (tracer is None or traced):
            return plain, traced, last_spans, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.chdir(ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    record = run_record(args)

    ops = workloads.build_ops(args.workload, "tiny" if args.tiny else "full")
    random.Random(args.seed).shuffle(ops)
    goldens = workloads.load_goldens()
    setup_s, setup_plain_s = measure_setup(SETUP_RUNS)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, last_spans, failures = measure(ops, goldens, args.seconds, tracer)

    attempted = len(ops) * (len(plain) + len(traced))
    failed = sum(len(errors) for errors in failures.values())
    try:
        times = pass_times(plain, len(ops))
        if tracer is None:
            values = end_to_end_metrics(times, ops, setup_s, attempted, failed)
            wanted = spec["end_to_end"]
        else:
            values = per_layer_metrics(traced, [sum(walls) for walls, _, _ in plain])
            wanted = spec["per_layer"]
            spans, origin = last_spans
            tracing.write_spans(spans, os.path.join(
                workloads.WORK_DIR, f"spans-{args.workload}-seed{args.seed}.csv"), origin)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchmarkBug, KeyError) as exc:
        print(f"benchmark bug: {exc!r}", file=sys.stderr)
        return 3
    finally:
        for op in ops:
            if op.out is not None and os.path.exists(op.out):
                os.remove(op.out)

    for name, errors in failures.items():
        print(f"FAILED {name} ({len(errors)}x): {errors[0].strip()}", file=sys.stderr)
    record.update(loadavg_after=list(os.getloadavg()), ops_per_pass=len(ops),
                  passes=len(plain), traced_passes=len(traced), setup_runs=SETUP_RUNS,
                  setup_plain_s=setup_plain_s,
                  pass_wall_s=[sum(walls) for walls, _, _ in plain],
                  **{f"typical_{name}": value for name, value in times.items()},
                  work_unit=workloads.WORK_UNITS[args.workload])
    if tracer is not None:
        record["verdicts"] = {k: v for k, v in traced[0].items() if ".fail." in k or k.endswith(".ok")}
    print("# run " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
