"""Tests of the benchmark itself: tracing, oracles and seeded inputs."""
from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracing import TARGETS, Tracer
from workloads import WORKLOADS, Context, NODE_SCAN_MIX, import_program

import magrep.cli  # noqa: F401  (loads every magrep module for the tracer)
from magrep import dynamics, qcore, svgplot

ROOT = Path(run.__file__).resolve().parents[1]


def first_inputs(name: str, seed: int, n: int = 6) -> list:
    return list(itertools.islice(WORKLOADS[name].inputs(seed), n))


def run_in_process(name: str, inp, out_dir: Path):
    wl = WORKLOADS[name]
    import_program(wl, traced=True)
    ctx = Context(ROOT, run.child_env(), in_process=True)
    return run.run_op(wl, out_dir.name, inp, out_dir.parent, ctx)


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.suffix in (".csv", ".svg")}


# ------------------------------------------------------------------ tracing

@pytest.mark.parametrize("name,index", [("pair-trace", 0), ("chain-sweep", 0), ("chain-sweep", 1)])
def test_wrappers_leave_cli_outputs_byte_identical(tmp_path, name, index):
    inp = first_inputs(name, seed=0)[index]
    plain = run_in_process(name, inp, tmp_path / "plain")
    with Tracer() as tracer:
        traced = run_in_process(name, inp, tmp_path / "traced")
    assert plain.error is None and traced.error is None
    assert tracer.spans, "no span was recorded"
    assert output_bytes(tmp_path / "plain") == output_bytes(tmp_path / "traced")
    assert len(output_bytes(tmp_path / "plain")) >= 1


def test_wrappers_leave_in_process_results_identical(tmp_path):
    inp = first_inputs("swap-fusion", seed=0)[0]
    p = dynamics.LindbladParams(kappa_d=2e6, dim_c=3, dim_m=3)
    plain = run_in_process("swap-fusion", inp, tmp_path / "op"), dynamics.generate_bell_pair(p)
    with Tracer():
        traced = run_in_process("swap-fusion", inp, tmp_path / "op"), dynamics.generate_bell_pair(p)
    (m0, f0, c0), (s0, g0) = plain[0].result, plain[1]
    (m1, f1, c1), (s1, g1) = traced[0].result, traced[1]
    assert m0.tobytes() == m1.tobytes() and (f0, c0) == (f1, c1)
    assert s0.matrix.tobytes() == s1.matrix.tobytes() and g0 == g1


def _bindings() -> dict:
    mods = [m for n, m in sys.modules.items() if n == "magrep" or n.startswith("magrep.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap["post_init"] = vars(qcore.DensityMatrix)["__post_init__"]
    snap["render"] = vars(svgplot.LineChart)["render"]
    return snap


def test_uninstall_restores_every_attribute():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    during = _bindings()
    tracer.uninstall()
    after = _bindings()
    assert during[("magrep.dynamics", "concurrence")] is not before[("magrep.dynamics", "concurrence")]
    assert during["post_init"] is not before["post_init"]
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrapped_name_gone_after_refactor_reports_zero_calls():
    targets = TARGETS + (
        ("dynamics.lindblad_rhs", "magrep.dynamics", "no_such_function"),
        ("qcore.validate", "magrep.qcore", "NoSuchClass.__post_init__"),
        ("network.simulate_chain", "magrep.no_such_module", "simulate_chain"),
    )
    tracer = Tracer()
    tracer.install(targets)
    try:
        dynamics.generate_bell_pair(dynamics.LindbladParams())
    finally:
        tracer.uninstall()
    assert tracer.missing == ["magrep.dynamics.no_such_function",
                              "magrep.qcore.NoSuchClass.__post_init__",
                              "magrep.no_such_module.simulate_chain"]
    metrics = tracer.layer_metrics(1)
    assert metrics["dynamics.evolve_calls"] == 1
    assert metrics["network.simulate_chain_calls"] == 0
    assert metrics["swap.bsm_s"] == 0

    empty = Tracer()
    empty.install((("dynamics.evolve", "magrep.dynamics", "renamed_evolve"),))
    try:
        dynamics.generate_bell_pair(dynamics.LindbladParams())
    finally:
        empty.uninstall()
    assert empty.layer_metrics(1)["dynamics.evolve_calls"] == 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [(1, "swap.bsm", 0.0, 1.0, -1, 0), (2, "qcore.embed", 0.2, 0.5, 1, 0),
                    (3, "qcore.validate", 0.6, 0.7, 1, 0)]
    m = tracer.layer_metrics(2)
    assert m["swap.bsm_s"] == pytest.approx(0.5)
    assert m["swap.bsm_self_s"] == pytest.approx(0.3)
    assert m["qcore.embed_calls"] == 0.5


def test_spans_file_holds_parent_and_operation(tmp_path):
    inp = first_inputs("swap-fusion", seed=0)[0]
    with Tracer() as tracer:
        tracer.op = 7
        run_in_process("swap-fusion", inp, tmp_path / "op")
    tracer.write_spans(tmp_path / "spans.csv")
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0] == "span_id,name,start_s,end_s,parent_id,op_id"
    rows = [line.split(",") for line in lines[1:]]
    names = {int(r[0]): r[1] for r in rows}
    assert all(r[5] == "7" for r in rows)
    assert any(r[1] == "qcore.validate" and names.get(int(r[4])) == "swap.bsm" for r in rows)


# ------------------------------------------------------------------ oracles

def _perturb_csv(path: Path, row: int, col: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) + delta, ".9g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,index,csv_name,row,col", [
    ("pair-trace", 0, "pair_trace.csv", 100, 3),
    ("pair-trace", 0, "pair_dm.csv", 6, 2),
    ("chain-sweep", 0, "chain.csv", 1, 1),
    ("chain-sweep", 1, "sweep.csv", 2, 4),
])
def test_perturbed_csv_value_is_a_failed_operation(tmp_path, name, index, csv_name, row, col):
    wl = WORKLOADS[name]
    inp = first_inputs(name, seed=0)[index]
    out = tmp_path / "op"
    good = run.finish(wl, run_in_process(name, inp, out))
    assert good.error is None
    assert good.digests[csv_name]

    bad = run.Op("op", inp, out)
    _perturb_csv(out / csv_name, row, col, 1e-4)
    run.finish(wl, bad)
    assert bad.error is not None


def test_wrong_in_process_result_is_a_failed_operation(tmp_path):
    wl = WORKLOADS["swap-fusion"]
    op = run_in_process("swap-fusion", first_inputs("swap-fusion", seed=0)[0], tmp_path / "op")
    matrix, fid, conc = op.result
    op.result = matrix, fid + 1e-5, conc
    run.finish(wl, op)
    assert op.error is not None and "fidelity" in op.error


def test_node_oracle_matches_program_within_tolerance():
    inp = first_inputs("node-scan", seed=0)[0]
    op = run_in_process("node-scan", inp, Path("unused"))
    assert [(k, d) for k, d, _, _ in op.result] == list(NODE_SCAN_MIX)
    run.finish(WORKLOADS["node-scan"], op)
    assert op.error is None


# ------------------------------------------------------------------ inputs

def _pair_steps(inp) -> tuple[int, int]:
    rates = {k: 2 * math.pi * v * 1e6 for k, v in inp.items()}
    p = dynamics.LindbladParams(**rates)
    dt = dynamics.default_step(p)
    quarter = dynamics.pair_generation_time(p)
    return math.ceil(3 * quarter / dt - 1e-9), math.ceil(quarter / dt - 1e-9)


def _node_steps(inp) -> list[int]:
    rates = {k: 2 * math.pi * v * 1e6 for k, v in inp.items()}
    steps = []
    for kind, dim in NODE_SCAN_MIX:
        p = dynamics.LindbladParams(dim_c=dim, dim_m=dim, **rates)
        steps.append(math.ceil(dynamics.pair_generation_time(p) / dynamics.default_step(p, kind)
                               - 1e-9))
    return steps


def _shape(name: str, inp):
    """What fixes an operation's work: it must not depend on the seed."""
    if name == "pair-trace":
        return _pair_steps(inp)
    if name == "node-scan":
        return _node_steps(inp)
    if name == "chain-sweep":
        return inp["command"]
    return len(inp["purities"]), len(inp["outcomes"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs_but_not_the_work(name):
    a, again, b = first_inputs(name, 3), first_inputs(name, 3), first_inputs(name, 4)
    assert a == again
    assert a != b and len(a) == len(b)
    assert [_shape(name, x) for x in a] == [_shape(name, x) for x in b]


def test_pair_and_node_step_counts_are_fixed():
    assert {_pair_steps(x) for x in first_inputs("pair-trace", 5, 20)} == {(472, 158)}
    assert {tuple(_node_steps(x)) for x in first_inputs("node-scan", 5, 20)} == {
        (158, 158, 158, 24481, 24481)}


# --------------------------------------------------------------- whole runs

def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    done = _bench(ROOT, "--workload", "swap-fusion", "--seed", "2", "--seconds", "1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "pair-trace", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
