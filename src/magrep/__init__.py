"""Cavity-magnon quantum repeater chain simulator.

Layers, bottom up:

* :mod:`magrep.qcore` - dense complex linear algebra, labeled density
  matrices, Bell/Werner states, concurrence and fidelity.
* :mod:`magrep.params` - node parameters and the integration error type,
  in plain Python.
* :mod:`magrep.excitation` - the pair run on the node's single-excitation
  block, in plain Python.
* :mod:`magrep.dynamics` - Lindblad-equation node model producing the
  heralded cavity-magnon Bell pair.
* :mod:`magrep.swap` - beam-splitter interference, Bell-state measurement
  with feed-forward corrections, depolarizing swap noise.
* :mod:`magrep.network` - analytic link budgets, multiplexing and per-hop
  fidelity for multi-hop chains.
* :mod:`magrep.cli` - deterministic runs emitting CSV tables and SVG plots.

``import magrep`` loads none of them. ``magrep.<name>`` imports the module
that defines the name on first access (PEP 562), so the numpy-free chain
model and CLI never pay for the numerical layers they do not use.
"""
import importlib

__version__ = "0.1.0"

_HOMES = {
    "qcore": (
        "DensityMatrix", "HilbertSpec", "bell_state", "concurrence", "fidelity",
        "partial_trace", "werner_state",
    ),
    "params": ("IntegrationError", "LindbladParams"),
    "dynamics": (
        "EvolutionTrace", "build_full_hamiltonian", "build_rwa_hamiltonian",
        "collapse_operators", "evolve", "generate_bell_pair", "lindblad_rhs",
    ),
    "network": (
        "BUILTIN_SCENARIOS", "ChainReport", "NoiseModel", "ScenarioParams", "chain_fidelity",
        "click_probability", "get_scenario", "hop_success", "link_efficiency", "simulate_chain",
    ),
    "swap": (
        "SwapResult", "beam_splitter_unitary", "bsm", "depolarize",
        "heralded_link_probability", "node_swap_gate", "swap_time",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (
    "cli", "config", "dynamics", "excitation", "network", "params", "qcore", "svgplot", "swap",
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Not cached in the package namespace: every access reads the home
    # module's current binding, so a patched or restored name is never stale.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | set(_SUBMODULES))
