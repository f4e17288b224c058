"""Run configuration: flat ``key = value [unit]`` files with explicit units.

Grammar, one statement per line::

    # comment (also allowed after a statement)
    key = value [unit]

Unknown keys and missing or wrong unit suffixes are hard errors; the unit
error lists the suffixes the key accepts. Physical quantities must carry one
of: GHz, MHz (frequencies, stored as angular rad/s), ns (times), km, cm
(lengths), dB_per_km, dB_per_cm (attenuation). A number is an ASCII token
such as ``-1.5e3``; ``_`` digit separators and non-ASCII digits are refused.
CLI value flags and sweep values are read by the same :func:`parse_value`.
Chip-scale cm quantities are normalized into the km lane by scaling the
attenuation up and the span down by 100, preserving the span loss product.

Every key is declared once, in :data:`KEYS`: the commands that read it,
its type, its unit suffixes and the field it sets.

:func:`parse_config_text` parses the text of one command's config and
refuses, as ``file:line``, a key that command does not read;
:func:`load_config` reads a file and parses it.

An inline scenario must be complete (``eta_conv`` may be omitted for purely
microwave links) and cannot be combined with the ``scenario`` key. An empty
file yields all defaults: the resonant 10 GHz node, and no scenario or noise
model, which ``chain`` and ``sweep`` resolve to chip-a and the default noise.
Only a file with a scenario, inline-scenario, ``p_link`` or ``q_swap`` key
loads the chain model, :mod:`magrep.network`.

The parser checks only the text (syntax, units, numbers, integer counts,
finite values) and reports ``file:line``. Ranges and types are checked by the
constructors of ``RunConfig``, ``ScenarioParams``, ``LindbladParams`` and
``NoiseModel``; their errors are reported as ``file: message``, naming the
field, with frequencies in the stored rad/s.
"""
from __future__ import annotations

import math
from pathlib import Path

from .params import TWO_PI, LindbladParams, Value, check_count, check_probability, check_real

OUTPUT_FORMATS = ("csv", "svg")


class ConfigError(ValueError):
    """Unparseable or contradictory run configuration."""


class RunConfig(Value):
    """Everything one deterministic run needs; the only validator of its values."""

    # Chain-only values of magrep.network's types, which this module imports only
    # to parse chain keys; None is the chip-a scenario and NoiseModel().
    scenario: ScenarioParams | None = None
    hops: int = 4
    noise: NoiseModel | None = None
    lindblad: LindbladParams = LindbladParams()
    output_dir: Path = Path("out")
    formats: tuple[str, ...] = ("csv",)
    pclick_override: float | None = None
    ideal: bool = False
    t_final: float | None = None  # s; pair rounds it up to its grid, and to >= a quarter period
    dt: float | None = None  # s; pair shrinks it so whole steps land on the quarter period

    def __post_init__(self) -> None:
        try:
            check_count("hops", self.hops)
            for key in ("t_final", "dt"):
                if getattr(self, key) is not None:
                    check_real(key, getattr(self, key), "> 0")
            if not self.formats:
                raise ValueError("at least one output format is required")
            bad = [f for f in self.formats if f not in OUTPUT_FORMATS]
            if bad:
                raise ValueError(f"unknown output formats {bad}; valid: {OUTPUT_FORMATS}")
            if self.pclick_override is not None:
                check_probability("pclick_override", self.pclick_override)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "output_dir", Path(self.output_dir))


_REQUIRED = object()  # the default of an inline-scenario key that must be given


class Key(Value):
    """One config key: the commands that read it, how its text is parsed, and what it sets."""

    commands: tuple[str, ...]
    kind: type  # float, int or str (a name)
    units: dict | None  # suffix -> conversion of the number to the stored unit; None: bare
    owner: str  # what it sets: "lindblad", "run", "noise" or "scenario" (the inline one)
    field: str  # the owner's field
    default: object = _REQUIRED  # an inline-scenario key's value when it is left out


_CHAIN = ("chain", "sweep")

# Every config key, declared once. The inline-scenario keys are in ScenarioParams'
# field order, which is the order scenario_to_config writes them in.
KEYS = {
    **{name: Key(("pair",), float, {"GHz": lambda v: TWO_PI * v * 1e9,
                                    "MHz": lambda v: TWO_PI * v * 1e6}, "lindblad", name)
       for name in ("g_mc", "kappa_d", "gamma_d", "kappa_phi", "gamma_phi")},
    **{name: Key(("pair",), float, {"ns": lambda v: v * 1e-9}, "run", name)
       for name in ("t_final", "dt")},
    "scenario": Key(_CHAIN, str, None, "run", "scenario"),  # a built-in scenario's name
    "hops": Key(_CHAIN, int, None, "run", "hops"),
    "pclick_override": Key(_CHAIN, float, None, "run", "pclick_override"),
    "p_link": Key(_CHAIN, float, None, "noise", "p_link"),
    "q_swap": Key(_CHAIN, float, None, "noise", "q_swap"),
    # the chain SVG's title; sweep writes no name, so it does not read the key
    "scenario_name": Key(("chain",), str, None, "scenario", "name", "custom"),
    "alpha": Key(_CHAIN, float, {"dB_per_km": lambda v: v * 1.0, "dB_per_cm": lambda v: v * 100.0},
                 "scenario", "alpha"),
    "span": Key(_CHAIN, float, {"km": lambda v: v * 1.0, "cm": lambda v: v * (1.0 / 100.0)},
                "scenario", "l_span"),
    "eta_read": Key(_CHAIN, float, None, "scenario", "eta_read"),
    # left out: a microwave link, with no conversion stage
    "eta_conv": Key(_CHAIN, float, None, "scenario", "eta_conv", None),
    **{name: Key(_CHAIN, float, None, "scenario", name)
       for name in ("eta_extra", "eta_det", "eta_col", "p_bsa")},
    "m_mux": Key(_CHAIN, int, None, "scenario", "m_mux"),
}
_INLINE_SCENARIO_KEYS = [key for key, spec in KEYS.items() if spec.owner == "scenario"]
COMMAND_KEYS = {
    command: frozenset(key for key, spec in KEYS.items() if command in spec.commands)
    for command in ("pair", "chain", "sweep")
}


def stored_unit(key: str) -> str | None:
    """The suffix of ``key``'s stored unit, the one that converts 1 to 1; None for a bare key."""
    return next((u for u, convert in (KEYS[key].units or {}).items() if convert(1.0) == 1.0), None)


def parse_value(key: str, token: str, unit: str | None, where: str):
    """``token`` and its ``unit`` suffix as ``key``'s stored value; errors start with ``where``."""
    spec = KEYS[key]
    convert = None
    if spec.units is None:
        if unit is not None:
            raise ConfigError(f"{where}: {key} takes no unit suffix, got {unit!r}")
    else:
        convert = next((f for u, f in spec.units.items() if u.lower() == (unit or "").lower()),
                       None)
        if convert is None:
            got = "none" if unit is None else repr(unit)
            raise ConfigError(
                f"{where}: {key} needs a unit suffix ({' or '.join(spec.units)}), got {got}"
            )
    if spec.kind is str:
        return token
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        v = spec.kind(token)
    except ValueError:
        what = "an integer" if spec.kind is int else "a number"
        raise ConfigError(f"{where}: cannot parse {key} = {token!r} as {what}") from None
    if spec.kind is float and not math.isfinite(v):
        raise ConfigError(f"{where}: {key} must be finite, got {token!r}")
    return v if convert is None else convert(v)


def _read_values(text: str, command: str, source: str) -> dict[str, object]:
    """Each key's parsed value; a key ``command`` does not read is an error."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value [unit]', got {raw.strip()!r}")
        key_part, value_part = line.split("=", 1)
        key = key_part.strip().lower()
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if command not in KEYS[key].commands:
            raise ConfigError(f"{where}: the {command} command does not read {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        tokens = value_part.split()
        if not tokens:
            raise ConfigError(f"{where}: missing value for {key!r}")
        if len(tokens) > 2:
            raise ConfigError(f"{where}: too many tokens after '=' for {key!r}")
        unit = tokens[1] if len(tokens) == 2 else None
        values[key] = parse_value(key, tokens[0], unit, where)
    return values


def _run_config(values: dict[str, object], source: str) -> RunConfig:
    """The run that the parsed ``values`` describe, checked by the constructors."""
    owners = {"lindblad": {}, "run": {}, "noise": {}, "scenario": {}}
    for key, value in values.items():
        owners[KEYS[key].owner][KEYS[key].field] = value
    run, noise = owners["run"], owners["noise"]
    inline_present = [k for k in _INLINE_SCENARIO_KEYS if k in values]
    if "scenario" in run and inline_present:
        raise ConfigError(
            f"{source}: 'scenario' cannot be combined with inline scenario keys {inline_present}"
        )
    missing = [k for k in _INLINE_SCENARIO_KEYS
               if k not in values and KEYS[k].default is _REQUIRED]
    if inline_present and missing:
        raise ConfigError(f"{source}: inline scenario is missing keys {missing}")

    try:
        if inline_present or "scenario" in run or noise:
            from . import network  # the chain model, loaded only for its own keys

            if inline_present:
                defaults = {KEYS[k].field: KEYS[k].default for k in _INLINE_SCENARIO_KEYS}
                run["scenario"] = network.ScenarioParams(**{**defaults, **owners["scenario"]})
            elif "scenario" in run:
                run["scenario"] = network.get_scenario(run["scenario"])
            if noise:
                run["noise"] = network.NoiseModel(**noise)
        return RunConfig(lindblad=LindbladParams(**owners["lindblad"]), **run)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config_text(text: str, command: str, source: str = "<config>") -> RunConfig:
    """Parse the config text of one CLI command; :data:`KEYS` declares its keys."""
    return _run_config(_read_values(text, command, source), source)


def load_config(path: str | Path, command: str) -> RunConfig:
    """Read and parse the config file of one CLI command."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text, command, str(path))


def scenario_to_config(s: ScenarioParams) -> str:
    """Serialize a scenario as config lines that re-load to an equal value.

    Each value is written in the unit it is stored in, floats with full repr
    precision, so the round trip is exact; an unset ``eta_conv`` is left out.
    """
    lines = []
    for key in _INLINE_SCENARIO_KEYS:
        value = getattr(s, KEYS[key].field)
        if value is not None:
            unit = stored_unit(key)
            lines.append(f"{key} = {value}" if unit is None else f"{key} = {value} {unit}")
    return "\n".join(lines) + "\n"
