"""Run configuration: flat ``key = value [unit]`` files with explicit units.

Grammar, one statement per line::

    # comment (also allowed after a statement)
    key = value [unit]

Unknown keys and missing or wrong unit suffixes are hard errors. Physical
quantities must carry one of: GHz, MHz (frequencies, stored as angular
rad/s), ns (times), km, cm (lengths), dB_per_km, dB_per_cm (attenuation).
Chip-scale cm quantities are normalized into the km lane by scaling the
attenuation up and the span down by 100, preserving the span loss product.

Recognized keys, by the command that reads them:

* ``pair``: the coupling ``g_mc`` and the rates ``kappa_d``, ``gamma_d``,
  ``kappa_phi``, ``gamma_phi`` of the resonant node, and the run times
  ``t_final``, ``dt``
* ``chain`` and ``sweep``: ``scenario`` (built-in name), ``hops``,
  ``pclick_override``, ``p_link``, ``q_swap``, and the inline scenario
  ``scenario_name``, ``alpha``, ``span``, ``eta_read``, ``eta_conv``,
  ``eta_extra``, ``eta_det``, ``eta_col``, ``p_bsa``, ``m_mux``

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
from numbers import Integral
from pathlib import Path

from .params import TWO_PI, LindbladParams, Value

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
        if isinstance(self.hops, bool) or not isinstance(self.hops, Integral) or self.hops < 1:
            raise ConfigError(f"hops must be an integer >= 1, got {self.hops!r}")
        for key in ("t_final", "dt"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {value}")
        if not self.formats:
            raise ConfigError("at least one output format is required")
        bad = [f for f in self.formats if f not in OUTPUT_FORMATS]
        if bad:
            raise ConfigError(f"unknown output formats {bad}; valid: {OUTPUT_FORMATS}")
        if self.pclick_override is not None and not 0.0 <= self.pclick_override <= 1.0:
            raise ConfigError(f"pclick_override={self.pclick_override} outside [0, 1]")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


_FREQ_UNITS = {"ghz": 1e9, "mhz": 1e6}
_TIME_UNITS = {"ns": 1e-9}
_LENGTH_UNITS = {"km": 1.0, "cm": 1.0 / 100.0}
_ATTEN_UNITS = {"db_per_km": 1.0, "db_per_cm": 100.0}

_FREQ_KEYS = ("g_mc", "kappa_d", "gamma_d", "kappa_phi", "gamma_phi")
_TIME_KEYS = ("t_final", "dt")
_FRACTION_KEYS = ("eta_read", "eta_conv", "eta_extra", "eta_det", "eta_col",
                  "p_bsa", "p_link", "q_swap", "pclick_override")
_COUNT_KEYS = ("hops", "m_mux")
_NAME_KEYS = ("scenario", "scenario_name")

_INLINE_REQUIRED = ("alpha", "span", "eta_read", "eta_extra", "eta_det",
                    "eta_col", "p_bsa", "m_mux")
_INLINE_KEYS = _INLINE_REQUIRED + ("eta_conv", "scenario_name")

# The keys each CLI command reads: pair the node, chain and sweep the chain model.
_CHAIN_KEYS = frozenset(("scenario", "hops", "pclick_override", "p_link", "q_swap", *_INLINE_KEYS))
COMMAND_KEYS = {
    "pair": frozenset((*_FREQ_KEYS, *_TIME_KEYS)),
    "chain": _CHAIN_KEYS,
    "sweep": _CHAIN_KEYS,
}
KNOWN_KEYS = COMMAND_KEYS["pair"] | _CHAIN_KEYS


def _parse_number(token: str, key: str, where: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {token!r} as a number") from None
    if not math.isfinite(v):
        raise ConfigError(f"{where}: {key} must be finite, got {token!r}")
    return v


def _parse_value(key: str, value: str, unit: str | None, where: str):
    if key in _FREQ_KEYS:
        if unit is None:
            raise ConfigError(f"{where}: {key} needs a unit suffix (GHz or MHz)")
        mult = _FREQ_UNITS.get(unit.lower())
        if mult is None:
            raise ConfigError(f"{where}: {key} takes GHz or MHz, not {unit!r}")
        return TWO_PI * _parse_number(value, key, where) * mult
    if key in _TIME_KEYS:
        if unit is None or unit.lower() not in _TIME_UNITS:
            raise ConfigError(f"{where}: {key} needs the ns unit suffix")
        return _parse_number(value, key, where) * _TIME_UNITS[unit.lower()]
    if key == "span":
        if unit is None or unit.lower() not in _LENGTH_UNITS:
            raise ConfigError(f"{where}: span takes km or cm, got {unit!r}")
        return _parse_number(value, key, where) * _LENGTH_UNITS[unit.lower()]
    if key == "alpha":
        if unit is None or unit.lower() not in _ATTEN_UNITS:
            raise ConfigError(f"{where}: alpha takes dB_per_km or dB_per_cm, got {unit!r}")
        return _parse_number(value, key, where) * _ATTEN_UNITS[unit.lower()]
    if unit is not None:
        raise ConfigError(f"{where}: {key} takes no unit suffix, got {unit!r}")
    if key in _FRACTION_KEYS:
        return _parse_number(value, key, where)
    if key in _COUNT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be an integer, got {value!r}") from None
    if key in _NAME_KEYS:
        return value
    raise ConfigError(f"{where}: unhandled key {key!r}")  # pragma: no cover


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
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key not in COMMAND_KEYS[command]:
            raise ConfigError(f"{where}: the {command} command does not read {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        tokens = value_part.split()
        if not tokens:
            raise ConfigError(f"{where}: missing value for {key!r}")
        if len(tokens) > 2:
            raise ConfigError(f"{where}: too many tokens after '=' for {key!r}")
        unit = tokens[1] if len(tokens) == 2 else None
        values[key] = _parse_value(key, tokens[0], unit, where)
    return values


def _run_config(values: dict[str, object], source: str) -> RunConfig:
    """The run that the parsed ``values`` describe, checked by the constructors."""
    inline_present = [k for k in _INLINE_KEYS if k in values]
    if "scenario" in values and inline_present:
        raise ConfigError(
            f"{source}: 'scenario' cannot be combined with inline scenario keys {inline_present}"
        )
    missing = [k for k in _INLINE_REQUIRED if k not in values]
    if inline_present and missing:
        raise ConfigError(f"{source}: inline scenario is missing keys {missing}")

    run_kwargs = {k: values[k] for k in ("hops", "pclick_override", *_TIME_KEYS) if k in values}
    noise_kwargs = {k: values[k] for k in ("p_link", "q_swap") if k in values}
    try:
        if inline_present or "scenario" in values or noise_kwargs:
            from . import network  # the chain model, loaded only for its own keys

            if inline_present:
                run_kwargs["scenario"] = network.ScenarioParams(
                    name=values.get("scenario_name", "custom"),
                    alpha=values["alpha"],
                    l_span=values["span"],
                    eta_read=values["eta_read"],
                    eta_conv=values.get("eta_conv"),
                    eta_extra=values["eta_extra"],
                    eta_det=values["eta_det"],
                    eta_col=values["eta_col"],
                    p_bsa=values["p_bsa"],
                    m_mux=values["m_mux"],
                )
            elif "scenario" in values:
                run_kwargs["scenario"] = network.get_scenario(values["scenario"])
            if noise_kwargs:
                run_kwargs["noise"] = network.NoiseModel(**noise_kwargs)
        return RunConfig(
            lindblad=LindbladParams(**{k: values[k] for k in _FREQ_KEYS if k in values}),
            **run_kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config_text(text: str, command: str, source: str = "<config>") -> RunConfig:
    """Parse the config text of one CLI command; see the module docstring for its keys."""
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

    Floats are written with full repr precision so the round trip is exact.
    """
    lines = [
        f"scenario_name = {s.name}",
        f"alpha = {s.alpha!r} dB_per_km",
        f"span = {s.l_span!r} km",
        f"eta_read = {s.eta_read!r}",
    ]
    if s.eta_conv is not None:
        lines.append(f"eta_conv = {s.eta_conv!r}")
    lines += [
        f"eta_extra = {s.eta_extra!r}",
        f"eta_det = {s.eta_det!r}",
        f"eta_col = {s.eta_col!r}",
        f"p_bsa = {s.p_bsa!r}",
        f"m_mux = {s.m_mux}",
    ]
    return "\n".join(lines) + "\n"
