"""The four benchmark workloads: seeded inputs, one operation, its oracle check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. Inputs come only from the seed and the
operation index, and the program receives nothing but those inputs.

* ``pair-trace``: a fresh ``python -m magrep.cli pair --format csv,svg``
  process per operation, on a generated config file. The node command a user
  runs; interpreter start, imports and per-record observables dominate.
* ``node-scan``: in process, ``dynamics.generate_bell_pair`` under RWA at
  truncations 3, 4, 5 and the full Hamiltonian at 2, 3 per operation. The
  generator build, the dense step matrix and the propagation loop dominate.
* ``chain-sweep``: a fresh ``magrep chain`` (csv and svg) or ``magrep sweep``
  process per operation, alternating. The link budget is pure Python and takes
  under 1 ms; interpreter start and the numpy import dominate.
* ``swap-fusion``: in process, exact fusion of an 8-hop chain of Werner links
  through ``tensor_product``, ``bsm`` and ``depolarize``; the only workload
  that runs ``swap`` and qcore's subsystem primitives.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import oracle

TWO_PI = 2.0 * math.pi
# A hung child is killed after this long and its operation counts as failed.
OP_TIMEOUT_S = 120.0

RATE_RANGES_MHZ = {
    "kappa_d": (0.2, 2.0),
    "gamma_d": (0.1, 1.0),
    "kappa_phi": (0.05, 0.6),
    "gamma_phi": (0.05, 0.6),
}
# Node defaults kept fixed where a workload does not draw them.
DEFAULT_NODE = {"omega_c": TWO_PI * 10e9, "omega_m": TWO_PI * 10e9, "g_mc": TWO_PI * 130e6}


def _draw_rates_mhz(rng: random.Random) -> dict[str, float]:
    return {k: round(rng.uniform(lo, hi), 4) for k, (lo, hi) in RATE_RANGES_MHZ.items()}


def _node(mhz: dict[str, float], dim: int) -> dict:
    """Oracle node description in angular units, as the config parser stores it."""
    node = dict(DEFAULT_NODE, dim_c=dim, dim_m=dim)
    node.update({k: TWO_PI * v * 1e6 for k, v in mhz.items()})
    return node


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(argv: list[str], env: dict, cwd: Path, log: Path) -> tuple[int, int]:
    """Run a child to completion; return its exit code and its own peak RSS (KiB)."""
    with log.open("wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Workload:
    """One workload; subclasses give inputs, the operation and its check."""

    name: str
    # Modules whose fresh-interpreter import time is the set-up metric.
    setup_module: str
    # True when each operation is a CLI process (in-process under tracing).
    cli = False

    def inputs(self, seed: int):
        """Endless iterator of operation inputs, a function of the seed only."""
        raise NotImplementedError

    def prepare(self, inp, out_dir: Path) -> None:
        """Write the operation's input files; runs before its timer starts."""

    def run(self, inp, out_dir: Path, ctx: "Context"):
        """Do one operation; return what ``check`` needs."""
        raise NotImplementedError

    def check(self, inp, result, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def digests(self, result, out_dir: Path) -> dict[str, str]:
        """sha256 of each CSV the operation wrote."""
        return {p.name: _digest(p) for p in sorted(out_dir.glob("*.csv"))}


class Context:
    """What operations need from the harness: where and how CLI commands run."""

    def __init__(self, root: Path, env: dict, in_process: bool) -> None:
        self.root = root
        self.env = env
        self.in_process = in_process
        self.max_child_rss_kib = 0

    def run_cli(self, args: list[str], out_dir: Path) -> None:
        """One CLI command: a fresh process, or ``cli.main`` when in process."""
        if self.in_process:
            cli = sys.modules["magrep.cli"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
        else:
            code, rss_kib = run_child([sys.executable, "-m", "magrep.cli", *args], self.env,
                                      self.root, out_dir / "cli.log")
            self.max_child_rss_kib = max(self.max_child_rss_kib, rss_kib)
        if code != 0:
            raise RuntimeError(f"magrep {args[0]} exited with code {code}")


class PairTrace(Workload):
    name = "pair-trace"
    setup_module = "magrep.cli"
    cli = True

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            inp = {"g_mc": round(rng.uniform(100.0, 160.0), 4)}
            inp.update(_draw_rates_mhz(rng))
            yield inp

    def prepare(self, inp, out_dir: Path) -> None:
        out_dir.mkdir(parents=True)
        text = "".join(f"{k} = {v!r} MHz\n" for k, v in inp.items())
        (out_dir / "node.cfg").write_text(text, encoding="utf-8")

    def run(self, inp, out_dir: Path, ctx: Context):
        ctx.run_cli(["pair", "--config", str(out_dir / "node.cfg"), "--out", str(out_dir),
                     "--format", "csv,svg"], out_dir)

    def check(self, inp, result, out_dir: Path) -> list[str]:
        return oracle.check_pair(_node(inp, 2), out_dir)


# Per operation: (hamiltonian, truncation of both modes).
NODE_SCAN_MIX = (("rwa", 3), ("rwa", 4), ("rwa", 5), ("full", 2), ("full", 3))


class NodeScan(Workload):
    name = "node-scan"
    setup_module = "magrep.dynamics"

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield _draw_rates_mhz(rng)

    def run(self, inp, out_dir: Path, ctx: Context):
        dynamics = sys.modules["magrep.dynamics"]
        rates = {k: TWO_PI * v * 1e6 for k, v in inp.items()}
        out = []
        for kind, dim in NODE_SCAN_MIX:
            p = dynamics.LindbladParams(dim_c=dim, dim_m=dim, **rates)
            state, fid = dynamics.generate_bell_pair(p, hamiltonian=kind)
            out.append((kind, dim, state.matrix, fid))
        return out

    def check(self, inp, result, out_dir: Path) -> list[str]:
        errors = []
        for kind, dim, matrix, fid in result:
            errors += oracle.check_node(_node(inp, dim), kind, matrix, fid)
        return errors

    def digests(self, result, out_dir: Path) -> dict[str, str]:
        """sha256 of each returned state matrix and fidelity."""
        return {f"{kind}{dim}": hashlib.sha256(matrix.tobytes() + repr(fid).encode()).hexdigest()
                for kind, dim, matrix, fid in result}


class ChainSweep(Workload):
    name = "chain-sweep"
    setup_module = "magrep.cli"
    cli = True

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        scenarios = sorted(oracle.SCENARIOS)
        for i in itertools.count():
            scenario = rng.choice(scenarios)
            hops = rng.randint(1, 32)
            if i % 2 == 0:
                yield {"command": "chain", "scenario": scenario, "hops": hops}
                continue
            axis = rng.choice(("mux", "conv", "hops", "length"))
            k = rng.randint(3, 6)
            if axis == "mux":
                values = [str(v) for v in rng.sample(range(1, 65), k)]
            elif axis == "hops":
                values = [str(v) for v in rng.sample(range(1, 33), k)]
            elif axis == "conv":
                values = [repr(round(rng.uniform(0.01, 1.0), 4)) for _ in range(k)]
            else:
                span = oracle.SCENARIOS[scenario][1]
                values = [repr(round(span * rng.uniform(0.5, 4.0), 6)) for _ in range(k)]
            yield {"command": "sweep", "scenario": scenario, "hops": hops, "axis": axis,
                   "values": values}

    def prepare(self, inp, out_dir: Path) -> None:
        out_dir.mkdir(parents=True)

    def run(self, inp, out_dir: Path, ctx: Context):
        args = [inp["command"], "--scenario", inp["scenario"], "--hops", str(inp["hops"]),
                "--out", str(out_dir)]
        if inp["command"] == "chain":
            args += ["--format", "csv,svg"]
        else:
            args += ["--sweep-axis", inp["axis"], "--sweep-values", ",".join(inp["values"])]
        ctx.run_cli(args, out_dir)

    def check(self, inp, result, out_dir: Path) -> list[str]:
        if inp["command"] == "chain":
            return oracle.check_chain(inp["scenario"], inp["hops"], out_dir)
        return oracle.check_sweep(inp["scenario"], inp["hops"], inp["axis"],
                                  [float(v) for v in inp["values"]], out_dir)


FUSION_HOPS = 8
FUSION_Q_SWAP = 0.967
BELL_OUTCOMES = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")


class SwapFusion(Workload):
    name = "swap-fusion"
    setup_module = "magrep.swap"

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield {
                "purities": [round(rng.uniform(0.9, 1.0), 6) for _ in range(FUSION_HOPS)],
                "outcomes": [rng.choice(BELL_OUTCOMES) for _ in range(FUSION_HOPS - 1)],
            }

    def run(self, inp, out_dir: Path, ctx: Context):
        qcore, swap = sys.modules["magrep.qcore"], sys.modules["magrep.swap"]
        p = inp["purities"]
        state = qcore.werner_state(p[0], ("a0", "b0"))
        for i, outcome in enumerate(inp["outcomes"], start=1):
            link = qcore.werner_state(p[i], (f"a{i}", f"b{i}"))
            joint = qcore.tensor_product(state, link)
            fused = swap.bsm(joint, f"b{i - 1}", f"a{i}", outcome=outcome).post_state
            state = swap.depolarize(fused, FUSION_Q_SWAP)
        singlet = qcore.bell_state("psi_minus", state.space.labels)
        return state.matrix, qcore.fidelity(state, singlet), qcore.concurrence(state)

    def check(self, inp, result, out_dir: Path) -> list[str]:
        matrix, fid, conc = result
        return oracle.check_fusion(inp["purities"], FUSION_Q_SWAP, matrix, fid, conc)


WORKLOADS = {w.name: w for w in (PairTrace(), NodeScan(), ChainSweep(), SwapFusion())}


def import_program(workload: Workload, traced: bool) -> None:
    """Import what an in-process run calls; under tracing, every magrep module."""
    importlib.import_module(workload.setup_module)
    if traced:
        importlib.import_module("magrep.cli")
