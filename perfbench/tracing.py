"""Outside-in layer tracing: spans recorded around magrep's public names.

The benchmark never edits the program. :class:`Tracer` replaces each traced
function, at every place a loaded ``magrep`` module binds it, with a wrapper
that records a span (name, start, end, parent span, operation id) and, for a
few names, counts derived from the call's arguments and result. The originals
are put back by :meth:`Tracer.uninstall`. A name that no longer exists after a
refactor is skipped and reports 0 calls.
"""
from __future__ import annotations

import csv
import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, defining module, attribute path). Several attributes may share
# one span name; the CLI command functions all record as "cli.cmd".
TARGETS = (
    ("cli.main", "magrep.cli", "main"),
    ("cli.cmd", "magrep.cli", "cmd_pair"),
    ("cli.cmd", "magrep.cli", "cmd_chain"),
    ("cli.cmd", "magrep.cli", "cmd_sweep"),
    ("cli.load_config", "magrep.config", "load_config"),
    ("cli.svg_render", "magrep.svgplot", "LineChart.render"),
    ("dynamics.generate_bell_pair", "magrep.dynamics", "generate_bell_pair"),
    ("dynamics.evolve", "magrep.dynamics", "evolve"),
    # _liouvillian is private; the generator build shows through these calls.
    ("dynamics.lindblad_rhs", "magrep.dynamics", "lindblad_rhs"),
    ("dynamics.rk4_step_matrix", "magrep.dynamics", "rk4_step_matrix"),
    ("qcore.validate", "magrep.qcore", "DensityMatrix.__post_init__"),
    ("qcore.concurrence", "magrep.qcore", "concurrence"),
    ("qcore.fidelity", "magrep.qcore", "fidelity"),
    ("qcore.embed", "magrep.qcore", "embed"),
    ("qcore.partial_trace", "magrep.qcore", "partial_trace"),
    ("qcore.tensor_product", "magrep.qcore", "tensor_product"),
    ("swap.bsm", "magrep.swap", "bsm"),
    ("swap.depolarize", "magrep.swap", "depolarize"),
    ("network.simulate_chain", "magrep.network", "simulate_chain"),
)

# Per-layer metrics, all per operation: (metric, span name, statistic) where
# the statistic is "calls", "s" (total span time) or "self_s" (span time
# minus the time of its child spans). Counter-based metrics follow below.
SPAN_METRICS = (
    ("cli.cmd_s", "cli.cmd", "s"),
    ("cli.load_config_s", "cli.load_config", "s"),
    ("cli.svg_render_s", "cli.svg_render", "s"),
    ("dynamics.evolve_calls", "dynamics.evolve", "calls"),
    ("dynamics.evolve_s", "dynamics.evolve", "s"),
    ("dynamics.evolve_self_s", "dynamics.evolve", "self_s"),
    ("dynamics.generate_bell_pair_s", "dynamics.generate_bell_pair", "s"),
    ("dynamics.lindblad_rhs_calls", "dynamics.lindblad_rhs", "calls"),
    ("dynamics.lindblad_rhs_s", "dynamics.lindblad_rhs", "s"),
    ("dynamics.rk4_step_matrix_s", "dynamics.rk4_step_matrix", "s"),
    ("qcore.validate_calls", "qcore.validate", "calls"),
    ("qcore.validate_s", "qcore.validate", "s"),
    ("qcore.concurrence_calls", "qcore.concurrence", "calls"),
    ("qcore.concurrence_s", "qcore.concurrence", "s"),
    ("qcore.fidelity_calls", "qcore.fidelity", "calls"),
    ("qcore.fidelity_s", "qcore.fidelity", "s"),
    ("qcore.embed_calls", "qcore.embed", "calls"),
    ("qcore.embed_s", "qcore.embed", "s"),
    ("qcore.partial_trace_calls", "qcore.partial_trace", "calls"),
    ("qcore.partial_trace_s", "qcore.partial_trace", "s"),
    ("qcore.tensor_product_calls", "qcore.tensor_product", "calls"),
    ("qcore.tensor_product_s", "qcore.tensor_product", "s"),
    ("swap.bsm_calls", "swap.bsm", "calls"),
    ("swap.bsm_s", "swap.bsm", "s"),
    ("swap.bsm_self_s", "swap.bsm", "self_s"),
    ("swap.depolarize_s", "swap.depolarize", "s"),
    ("network.simulate_chain_calls", "network.simulate_chain", "calls"),
    ("network.simulate_chain_s", "network.simulate_chain", "s"),
)
COUNT_METRICS = (
    "cli.files_written",
    "cli.bytes_written",
    "dynamics.steps",
    "dynamics.records",
    "dynamics.propagation_flops_computed",
    "dynamics.generator_bytes_computed",
    "network.hops_evaluated",
)
# The CLI layer's own time: argument handling, config objects, CSV formatting
# and writing, i.e. everything in main and the command functions that is not
# a traced call into another layer.
CLI_SELF_SPANS = ("cli.main", "cli.cmd")


def _count_evolve(counts: Counter, original, args, kwargs, result) -> None:
    """Steps, records and computed dense-propagation cost of one evolve call.

    The step count follows evolve's documented rule: the requested (or
    default) step is shrunk minimally so an integral number of steps lands on
    ``t_final``.
    """
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    p, t_final, dt = a["p"], a["t_final"], a["dt"]
    if dt is None:
        dt = sys.modules["magrep.dynamics"].default_step(p, a["hamiltonian"])
    steps = max(1, math.ceil(t_final / dt - 1e-9))
    d2 = (p.dim_c * p.dim_m) ** 2
    counts["dynamics.steps"] += steps
    counts["dynamics.records"] += len(result.times)
    # A dense D²×D² complex matvec per step: D⁴ complex multiply-adds, 8 flops each.
    counts["dynamics.propagation_flops_computed"] += 8 * d2 * d2 * steps
    counts["dynamics.generator_bytes_computed"] += 16 * d2 * d2


def _count_written(counts: Counter, original, args, kwargs, result) -> None:
    for path in result:
        counts["cli.files_written"] += 1
        counts["cli.bytes_written"] += os.path.getsize(path)


def _count_hops(counts: Counter, original, args, kwargs, result) -> None:
    counts["network.hops_evaluated"] += len(result.hops)


COUNTERS = {
    "dynamics.evolve": _count_evolve,
    "cli.cmd": _count_written,
    "network.simulate_chain": _count_hops,
}


class Tracer:
    """Span recorder for one traced run; install, run operations, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))
            if counter is not None:
                try:
                    counter(self.counts, original, args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    # The traced name changed shape; keep timing, drop the count.
                    self.counter_errors[name] = repr(exc)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at each ``magrep`` module binding of it."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "magrep" or n.startswith("magrep."))]
        for name, module_name, path in targets:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            bindings = {(id(owner), attr): owner}
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        bindings[(id(module), key)] = module
            for (_, key), holder in bindings.items():
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path: Path) -> None:
        """One CSV row per span, times in seconds on the perf_counter clock."""
        with path.open("w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["span_id", "name", "start_s", "end_s", "parent_id", "op_id"])
            for sid, name, start, end, parent, op in sorted(self.spans):
                w.writerow([sid, name, repr(start), repr(end), parent, op])

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation layer metrics derived from the recorded spans and counts."""
        calls: Counter = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        child_time: defaultdict[int, float] = defaultdict(float)
        for _sid, name, start, end, parent, _op in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _op in self.spans:
            self_time[name] += end - start - child_time[sid]
        stats = {"calls": calls, "s": total, "self_s": self_time}
        out = {metric: stats[stat][span] / n_ops for metric, span, stat in SPAN_METRICS}
        out["cli.self_s"] = sum(self_time[s] for s in CLI_SELF_SPANS) / n_ops
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / n_ops
        return out
