"""Top-level package surface: lazy public names and the numpy-free CLI commands."""
import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import magrep

# Home module -> the public names it defines.
HOMES = {
    # states and metrics
    "qcore": ("DensityMatrix", "HilbertSpec", "bell_state", "werner_state",
              "concurrence", "fidelity", "kron", "partial_trace"),
    # node dynamics
    "params": ("LindbladParams", "MaterialParams", "IntegrationError"),
    "dynamics": ("EvolutionTrace", "build_full_hamiltonian", "build_rwa_hamiltonian",
                 "collapse_operators", "coupling_strength", "evolve", "generate_bell_pair",
                 "lindblad_rhs"),
    # swapping
    "swap": ("BellOutcome", "BELL_OUTCOMES", "SwapResult", "beam_splitter_unitary",
             "bsm", "depolarize", "heralded_link_probability", "node_swap_gate",
             "swap_time"),
    # chain model
    "network": ("ScenarioParams", "NoiseModel", "ChainReport", "BUILTIN_SCENARIOS",
                "chain_fidelity", "click_probability", "cumulative_success",
                "get_scenario", "hop_success", "link_efficiency", "simulate_chain",
                "threshold_hops"),
}


def test_public_api_is_importable():
    """Each public name is listed by dir() and resolves to its home module's binding."""
    listed = dir(magrep)
    for home, names in HOMES.items():
        module = importlib.import_module(f"magrep.{home}")
        for name in names:
            assert getattr(magrep, name) is getattr(module, name), name
            assert name in listed, name


def test_dynamics_keeps_the_moved_names():
    from magrep import dynamics, excitation, params
    for name in ("LindbladParams", "MaterialParams", "IntegrationError", "TWO_PI",
                 "HERMITIAN_TOL", "PSD_TOL", "TRACE_DRIFT_LIMIT"):
        assert getattr(dynamics, name) is getattr(params, name)
    for name in ("default_step", "pair_generation_time", "pair_steps"):
        assert getattr(dynamics, name) is getattr(excitation, name)


def test_benchmark_trace_targets_resolve():
    """Every name the benchmark's tracer wraps, and every name node-scan reads, still exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("magrep.cli")
    for module in magrep._SUBMODULES:
        importlib.import_module(f"magrep.{module}")
    for _, module, attr_path in tracing.TARGETS:
        obj = sys.modules[module]
        for part in attr_path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr_path}"
    from magrep import dynamics
    for name in ("LindbladParams", "generate_bell_pair", "default_step", "pair_generation_time",
                 "concurrence"):
        assert callable(getattr(dynamics, name)), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        magrep.no_such_name  # noqa: B018


def test_chain_and_sweep_never_import_numpy(tmp_path):
    code = textwrap.dedent(f"""
        import sys
        import magrep
        assert "numpy" not in sys.modules, "import magrep loaded numpy"
        out = {str(tmp_path)!r}
        assert magrep.cli.main(["chain", "--scenario", "metro-c", "--hops", "8",
                                "--format", "csv,svg", "--out", out + "/chain"]) == 0
        assert magrep.cli.main(["sweep", "--scenario", "metro-c", "--sweep-axis", "length",
                                "--sweep-values", "5,10,20", "--out", out + "/sweep"]) == 0
        assert magrep.cli.main(["pair", "--format", "csv,svg", "--out", out + "/pair"]) == 0
        assert magrep.cli.main(["pair", "--ideal", "--out", out + "/ideal"]) == 0
        print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
    """)
    env = dict(os.environ)
    src = str(Path(magrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    for name in ("chain/chain.csv", "chain/chain.svg", "sweep/sweep.csv", "pair/pair_trace.csv",
                 "pair/pair_dm.csv", "pair/pair_trace.svg", "ideal/pair_trace.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_version_string():
    major, minor, patch = magrep.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))
