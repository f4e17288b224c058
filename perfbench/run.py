"""magrep benchmark: seeded workloads, oracle-checked outputs, layer tracing.

Run from the repository root::

    python3 perfbench/run.py --workload pair-trace --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up (the fresh-interpreter
import time of the modules the workload calls, median of several imports),
then a closed loop of operations for ``--seconds`` seconds, then an oracle
check of every operation's output. ``--trace 1`` runs the same operations in
process twice, untraced and then traced, and reports per-layer metrics per
operation together with the tracing overhead. The spans go to
``.perfbench/spans-<workload>-seed<seed>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. The line before it names the run
record ``.perfbench/<workload>-seed<seed>-trace<0|1>.json``, which holds the
Python, numpy and BLAS versions, the CPU and thread counts, every latency,
``fail_rate`` and the sha256 of every CSV (or result array) each operation
produced. BLAS and OpenMP are pinned to one thread here and in every child.
"""
from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Before numpy is imported anywhere: unpinned BLAS threads measure the scheduler.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
# Fresh-interpreter imports per set-up measurement, after one that fills the
# bytecode cache.
SETUP_REPEATS = 7
# Highest latency percentile reported: needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100

_IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import {module}; "
                 "print(repr(time.perf_counter() - t0))")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(THREAD_ENV)
    return env


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": THREAD_ENV,
    }


def measure_setup(module: str, env: dict) -> list[float]:
    """Import times of ``module`` in fresh interpreters, the first discarded."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER.format(module=module)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            samples.append(float(done.stdout))
    return samples


class Op:
    """One attempted operation; its inputs and outputs are dropped once checked."""

    __slots__ = ("key", "inp", "out_dir", "result", "latency_s", "error", "digests")

    def __init__(self, key: str, inp, out_dir: Path) -> None:
        self.key = key
        self.inp = inp
        self.out_dir = out_dir
        self.result = None
        self.latency_s = 0.0
        self.error: str | None = None
        self.digests: dict[str, str] | None = None


def run_op(wl, key: str, inp, work: Path, ctx) -> Op:
    """Prepare, then time one operation; its outputs go to ``work / key``."""
    op = Op(key, inp, work / key)
    wl.prepare(inp, op.out_dir)
    start = time.perf_counter()
    try:
        op.result = wl.run(inp, op.out_dir, ctx)
    except Exception:  # an operation that raises is a failed operation
        op.error = traceback.format_exc(limit=4)
    op.latency_s = time.perf_counter() - start
    return op


def finish(wl, op: Op) -> Op:
    """Oracle-check an operation that ran, then release its inputs and result."""
    if op.error is None:
        try:
            errors = wl.check(op.inp, op.result, op.out_dir)
            op.digests = wl.digests(op.result, op.out_dir)
        except Exception:  # a check that cannot read the output fails the operation
            errors = [traceback.format_exc(limit=4)]
        if errors:
            op.error = "; ".join(errors[:5])
    op.inp = op.result = op.out_dir = None
    return op


def run_loop(wl, inputs, work: Path, ctx, seconds: float) -> list[Op]:
    """Closed loop: operations back to back until ``seconds`` pass (at least one).

    Inputs are dropped as the loop goes (``wl.inputs`` regenerates them for
    the check), so the harness adds little memory per operation.
    """
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    for index, inp in enumerate(inputs):
        if ops and time.perf_counter() >= deadline:
            break
        op = run_op(wl, f"op{index:05d}", inp, work, ctx)
        op.inp = None
        ops.append(op)
    return ops


def timed_run(wl, seed: int, seconds: float, work: Path, record: dict) -> tuple[list[Op], dict]:
    from workloads import Context, import_program

    env = child_env()
    setup = measure_setup(wl.setup_module, env)
    ctx = Context(ROOT, env, in_process=not wl.cli)
    if not wl.cli:
        import_program(wl, traced=False)
    inputs = wl.inputs(seed)
    first = next(inputs)
    warm = run_op(wl, "warmup", first, work, ctx)
    ctx.max_child_rss_kib = 0
    ops = run_loop(wl, itertools.chain([first], inputs), work, ctx, seconds)
    rss_kib = ctx.max_child_rss_kib if wl.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The oracles run only now, so their memory stays out of the peak above.
    for op, inp in zip(ops, wl.inputs(seed)):
        op.inp = inp
        finish(wl, op)

    latencies = sorted(op.latency_s * 1e3 for op in ops)
    succeeded = sum(op.error is None for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": succeeded / sum(op.latency_s for op in ops),
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    record.update(setup_samples_s=setup, warmup_error=warm.error, latency_samples=len(ops))
    if len(ops) >= P90_MIN_SAMPLES:
        record["latency_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return ops, metrics


def traced_run(wl, seed: int, seconds: float, work: Path, record: dict) -> tuple[list[Op], dict]:
    """Each input runs in process twice, untraced and traced, in alternating order.

    Alternating pairs share the machine's state at the time, so the overhead
    estimate does not drift with it.
    """
    from tracing import Tracer
    from workloads import Context, import_program

    import_program(wl, traced=True)
    ctx = Context(ROOT, child_env(), in_process=True)
    inputs = wl.inputs(seed)
    first = next(inputs)
    run_op(wl, "warmup", first, work, ctx)
    tracer = Tracer()
    plain: list[Op] = []
    traced: list[Op] = []
    deadline = time.perf_counter() + seconds
    for index, inp in enumerate(itertools.chain([first], inputs)):
        if plain and time.perf_counter() >= deadline:
            break
        for phase in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            key = f"{phase}/op{index:05d}"
            if phase == "plain":
                plain.append(run_op(wl, key, inp, work, ctx))
                continue
            tracer.op = index
            with tracer:
                traced.append(run_op(wl, key, inp, work, ctx))
        finish(wl, plain[-1])
        finish(wl, traced[-1])
    spans = OUT / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write_spans(spans)
    metrics = tracer.layer_metrics(len(traced))
    untraced_s = sum(op.latency_s for op in plain)
    metrics["trace_overhead_frac"] = sum(op.latency_s for op in traced) / untraced_s - 1.0
    record.update(spans=str(spans.relative_to(ROOT)), spans_recorded=len(tracer.spans),
                  traced_outputs_identical=[op.digests for op in plain]
                  == [op.digests for op in traced],
                  traced_ops=len(traced), missing_names=tracer.missing,
                  counter_errors=tracer.counter_errors)
    return plain + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "magrep" / "__init__.py").is_file():
        print(f"perfbench: no magrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    work = OUT / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed)}
    run = traced_run if args.trace else timed_run
    ops, values = run(wl, args.seed, args.seconds, work, record)
    failed = sum(op.error is not None for op in ops)

    record.update(
        attempted=len(ops), failed=failed, fail_rate=failed / len(ops),
        metrics=values,
        latencies_ms=[op.latency_s * 1e3 for op in ops],
        failures={op.key: op.error for op in ops if op.error is not None},
        digests={op.key: op.digests for op in ops if op.digests},
    )
    record_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"record": str(record_path.relative_to(ROOT)),
                      "environment": record["environment"]}))
    print(f"perfbench: {wl.name} seed {args.seed}: {len(ops)} operations, {failed} failed",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
