"""Command-line front end: pair generation, chain studies and parameter sweeps.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (an
integrated state lost finiteness, trace, Hermiticity or positivity), 4 I/O
error. CSV output is UTF-8, comma-separated, LF-terminated, with a header row
and 9 significant digits; identical configurations produce byte-identical
files.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import KEYS, ConfigError, RunConfig, load_config
from .params import IntegrationError
from .svgplot import LineChart

# The config key each sweep axis sets; a sweep value is in the key's stored unit.
_SWEEP_FIELDS = {"mux": "m_mux", "conv": "eta_conv", "hops": "hops", "length": "span"}
SWEEP_AXES = tuple(_SWEEP_FIELDS)

# Most CSV rows one command may write: one per hop per chain for chain and
# sweep, one per record for pair. At the default noise the conditional
# fidelity prints as the fully mixed 0.25 from hop 222 on, so longer chains
# add no information. 10,000 rows is at most about 0.5 MB of CSV and a
# fraction of a second of work, 50 times the largest chain run of the
# benchmark (32 hops x 6 sweep values) and 21 times the default pair trace.
MAX_CSV_ROWS = 10_000


def _fmt(value) -> str:
    if type(value) is float:  # most cells; skips the numpy-scalar probe below
        return format(value, ".9g")
    value = value.item() if hasattr(value, "item") else value  # numpy scalar -> Python
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write(path: Path, text: str) -> Path:
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    return _write(path, "\n".join(lines) + "\n")


def _check_row_count(rows: int, key: str, per: str) -> None:
    """Refuse, before any output exists, a run whose CSV would exceed MAX_CSV_ROWS rows."""
    if rows > MAX_CSV_ROWS:
        raise ConfigError(
            f"{key}: {rows} CSV rows requested ({per}), above the limit of {MAX_CSV_ROWS}"
        )


def _chain_run(cfg: RunConfig) -> RunConfig:
    """``cfg`` with its unset chain-only values resolved: the chip-a scenario, the default noise."""
    from . import network

    return cfg.replace(
        scenario=network.BUILTIN_SCENARIOS["chip-a"] if cfg.scenario is None else cfg.scenario,
        noise=network.NoiseModel() if cfg.noise is None else cfg.noise,
    )


def _ensure_out_dir(cfg: RunConfig) -> Path:
    out = cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_pair(cfg: RunConfig) -> list[Path]:
    """Trace pair generation on the quarter-period grid; its record there is the heralded state.

    The resonant RWA block is the same at every truncation: ``dim_c``/``dim_m`` change nothing.
    """
    from . import excitation  # imported here, so chain and sweep never load it

    p = cfg.lindblad.without_dissipation() if cfg.ideal else cfg.lindblad
    # outside the try: a detuned node or g_mc = 0 is no row-count error
    excitation.check_hamiltonian(p, "rwa")
    t_q = excitation.pair_generation_time(p)
    try:
        n_q = excitation.pair_steps(p, dt=cfg.dt)
        step = t_q / n_q
        # to the first grid point at or after t_final; default three quarter periods, never < one
        t_final = cfg.t_final
        n_steps = 3 * n_q if t_final is None else max(n_q, excitation.whole_steps(t_final, step))
    except ValueError:  # whole_steps: t_q / dt or t_final / step is beyond the largest float
        n_steps = math.inf
    _check_row_count(n_steps + 1, "t_final/dt", "one per step, plus t = 0")
    out = _ensure_out_dir(cfg)
    trace = excitation.integrate_pair(p, n_steps * step, n_steps)

    rows = [
        [t * 1e9, c, *pops]
        for t, c, pops in zip(trace.times, trace.concurrences, trace.populations)
    ]
    files = [
        _write_csv(
            out / "pair_trace.csv",
            ["t_ns", "concurrence", "pop_00", "pop_01", "pop_10", "pop_11"],
            rows,
        )
    ]

    labels = ["00", "01", "10", "11"]
    dm_rows = [
        [a, b, z.real, z.imag, abs(z)]
        for a, row in zip(labels, trace.state(n_q)) for b, z in zip(labels, row)
    ]
    dm_header = ["row_label", "col_label", "re", "im", "abs"]
    files.append(_write_csv(out / "pair_dm.csv", dm_header, dm_rows))

    if "svg" in cfg.formats:
        chart = LineChart("Pair generation", "time (ns)", "concurrence")
        chart.add("concurrence", [t * 1e9 for t in trace.times], trace.concurrences)
        files.append(_write(out / "pair_trace.svg", chart.render()))
    return files


def cmd_chain(cfg: RunConfig) -> list[Path]:
    """Per-hop fidelity, concurrence and success probabilities for one chain."""
    from . import network  # the chain model; pair never loads it

    cfg = _chain_run(cfg)
    _check_row_count(cfg.hops, "hops", "one per hop")
    out = _ensure_out_dir(cfg)
    report = network.simulate_chain(cfg.scenario, cfg.hops, cfg.noise, cfg.pclick_override)
    files = [
        _write_csv(
            out / "chain.csv",
            ["hop", "fidelity", "concurrence", "p_hop", "p_cumulative", "usable"],
            [[r.hop, r.fidelity, r.concurrence, r.p_hop, r.p_cumulative, r.usable]
             for r in report.hops],
        )
    ]
    if "svg" in cfg.formats:
        hops = [r.hop for r in report.hops]
        chart = LineChart(f"Repeater chain ({report.scenario_name})", "hop", "value")
        chart.add("fidelity", hops, [r.fidelity for r in report.hops])
        chart.add(
            "usable threshold", hops,
            [network.USABLE_FIDELITY_THRESHOLD] * len(hops), dashed=True,
        )
        chart.add("cumulative success", hops, [r.p_cumulative for r in report.hops], dashed=True)
        files.append(_write(out / "chain.svg", chart.render()))
    return files


def _sweep_run(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """The run at one sweep point; the constructors check the swept value's range."""
    if axis not in _SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    spec = KEYS[_SWEEP_FIELDS[axis]]
    if spec.kind is int:
        if value != int(value):
            raise ConfigError(f"{axis} sweep values must be integers, got {value}")
        value = int(value)
    if spec.owner == "run":
        return cfg.replace(**{spec.field: value})
    return cfg.replace(scenario=cfg.scenario.replace(**{spec.field: value}))


def cmd_sweep(cfg: RunConfig, axis: str, values: list[float]) -> list[Path]:
    """Chain reports across one swept parameter, one CSV row per value per hop."""
    from . import network

    if not values:
        raise ConfigError("sweep needs at least one value")
    cfg = _chain_run(cfg)
    values = sorted(values)
    runs = [_sweep_run(cfg, axis, value) for value in values]
    _check_row_count(sum(run.hops for run in runs), "hops", "one per hop per chain")
    out = _ensure_out_dir(cfg)
    rows = []
    for value, run in zip(values, runs):
        report = network.simulate_chain(run.scenario, run.hops, run.noise, run.pclick_override)
        for r in report.hops:
            rows.append(
                [axis, value, r.hop, r.fidelity, r.concurrence, report.p_click,
                 r.p_hop, r.p_cumulative, r.usable]
            )
    return [
        _write_csv(
            out / "sweep.csv",
            ["axis", "value", "hop", "fidelity", "concurrence", "p_click",
             "p_hop", "p_cumulative", "usable"],
            rows,
        )
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magrep",
        description="Cavity-magnon repeater chain simulator",
    )
    # Each command declares only the flags it reads, so an ignored flag is a usage error;
    # a flag a command lacks reads as unset.
    parser.set_defaults(scenario=None, hops=None, format=None, pclick_override=None, ideal=False)
    sub = parser.add_subparsers(dest="command", required=True)
    pair = sub.add_parser("pair", help="simulate lossy pair generation at one node")
    chain = sub.add_parser("chain", help="evaluate a multi-hop repeater chain")
    sweep = sub.add_parser("sweep", help="sweep one chain parameter")
    for p in (pair, chain, sweep):
        p.add_argument("--config", help="config file (key = value [unit] lines)")
        p.add_argument("--out", help="output directory (default: out)")
    for p in (chain, sweep):
        p.add_argument("--scenario", help="built-in scenario name (chip-a .. metro-c)")
        p.add_argument("--hops", type=int, help="number of chain hops")
        p.add_argument("--pclick-override", type=float, dest="pclick_override",
                       help="pin the single-channel click probability")
    for p in (pair, chain):
        p.add_argument("--format", help="comma-separated outputs: csv,svg (default csv)")
    pair.add_argument("--ideal", action="store_true", help="zero all dissipation rates")
    sweep.add_argument("--sweep-axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--sweep-values", required=True,
                       help="comma-separated values for the swept axis")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with the given flags applied; RunConfig validates."""
    cfg = load_config(args.config, args.command) if args.config else RunConfig()
    overrides = {
        "hops": args.hops,
        "output_dir": args.out,
        "formats": None if args.format is None
        else tuple(f.strip().lower() for f in args.format.split(",") if f.strip()),
        "pclick_override": args.pclick_override,
    }
    given = {key: value for key, value in overrides.items() if value is not None}
    if args.scenario is not None:  # only chain and sweep declare --scenario
        from . import network

        given["scenario"] = network.get_scenario(args.scenario)
    return cfg.replace(ideal=args.ideal, **given)


def _parse_sweep_values(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {raw!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--sweep-values must be finite, got {raw!r}")
    return values


def exit_code_for(exc: BaseException) -> int:
    """Map a failure to the documented process exit code."""
    if isinstance(exc, IntegrationError):
        return 3
    if isinstance(exc, (ConfigError, ValueError)):
        return 2
    if isinstance(exc, OSError):
        return 4
    raise exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "pair":
            files = cmd_pair(cfg)
        elif args.command == "chain":
            files = cmd_chain(cfg)
        else:
            files = cmd_sweep(cfg, args.sweep_axis, _parse_sweep_values(args.sweep_values))
    except (ConfigError, ValueError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    for f in files:
        print(f)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
