"""Config grammar: units, defaults, errors, scenario round trips and the documented files."""
import math
import re
from pathlib import Path

import pytest

from magrep.cli import main
from magrep.config import (
    COMMAND_KEYS,
    KEYS,
    ConfigError,
    RunConfig,
    load_config,
    parse_config_text,
    scenario_to_config,
)
from magrep.network import BUILTIN_SCENARIOS, link_efficiency

TWO_PI = 2 * math.pi


class TestUnits:
    def test_frequency_in_mhz(self):
        cfg = parse_config_text("g_mc = 130 MHz\n", "pair")
        assert cfg.lindblad.g_mc == pytest.approx(TWO_PI * 1.3e8, rel=1e-15)

    def test_frequency_in_ghz(self):
        cfg = parse_config_text("g_mc = 0.13 GHz\n", "pair")
        assert cfg.lindblad.g_mc == pytest.approx(TWO_PI * 1.3e8, rel=1e-15)

    def test_time_in_ns(self):
        cfg = parse_config_text("t_final = 9.2 ns\n", "pair")
        assert cfg.t_final == pytest.approx(9.2e-9, rel=1e-15)

    def test_chip_units_normalize_preserving_span_loss(self):
        text = "\n".join(
            [
                "alpha = 0.2 dB_per_cm",
                "span = 1 cm",
                "eta_read = 0.62",
                "eta_extra = 0.98",
                "eta_det = 0.98",
                "eta_col = 0.95",
                "p_bsa = 0.5",
                "m_mux = 1",
            ]
        )
        cfg = parse_config_text(text, "chain")
        assert cfg.scenario.alpha == pytest.approx(20.0, rel=1e-15)
        assert cfg.scenario.l_span == pytest.approx(0.01, rel=1e-15)
        fiber_only = 10 ** (-cfg.scenario.alpha * cfg.scenario.l_span / 10.0)
        assert fiber_only == pytest.approx(10 ** (-0.02), rel=1e-12)
        assert link_efficiency(cfg.scenario) == pytest.approx(10 ** (-0.02) * 0.98, rel=1e-12)

    @pytest.mark.parametrize("line, stored, convert", [
        ("g_mc = {} GHz", lambda c: c.lindblad.g_mc, lambda v: TWO_PI * v * 1e9),
        ("kappa_d = {} mhz", lambda c: c.lindblad.kappa_d, lambda v: TWO_PI * v * 1e6),
        ("dt = {} NS", lambda c: c.dt, lambda v: v * 1e-9),
        ("span = {} cm", lambda c: c.scenario.l_span, lambda v: v * (1.0 / 100.0)),
        ("alpha = {} dB_per_cm", lambda c: c.scenario.alpha, lambda v: v * 100.0),
    ], ids=["GHz", "MHz", "ns", "cm", "dB_per_cm"])
    def test_conversions_are_bit_exact(self, line, stored, convert):
        # Grouping differently, e.g. v * (TWO_PI * 1e6), changes the last bit of about
        # a third of these values, which the 9-digit CSVs would not show.
        key = line.split()[0]
        command = KEYS[key].commands[0]
        base = [] if command == "pair" else [  # chip-a inline, but for this key
            ln for ln in scenario_to_config(BUILTIN_SCENARIOS["chip-a"]).splitlines()
            if not ln.startswith(key + " ")
        ]
        for v in [0.01 * k for k in range(1, 100)]:
            cfg = parse_config_text("\n".join([*base, line.format(repr(v))]), command)
            assert stored(cfg) == convert(v), v

    def test_missing_unit_suffix_is_an_error(self):
        with pytest.raises(ConfigError, match="needs a unit suffix"):
            parse_config_text("g_mc = 130\n", "pair")

    def test_wrong_unit_is_an_error(self):
        with pytest.raises(ConfigError, match="GHz or MHz"):
            parse_config_text("g_mc = 130 km\n", "pair")

    def test_unit_on_bare_quantity_is_an_error(self):
        with pytest.raises(ConfigError, match="no unit suffix"):
            parse_config_text("eta_det = 0.9 MHz\n", "chain")


def _bad_lines(key):
    """Lines that must fail for ``key``: unit errors, and number errors unless it is a name."""
    spec = KEYS[key]
    if spec.units is None:
        cases = {"unit on a bare key": f"{key} = 1 km"}
    else:
        unit = next(iter(spec.units))
        cases = {"missing unit": f"{key} = 1", "wrong unit": f"{key} = 1 furlong"}
    if spec.kind is not str:
        suffix = "" if spec.units is None else f" {unit.lower()}"
        cases |= {"non-number": f"{key} = often{suffix}", "nan": f"{key} = nan{suffix}",
                  "digit separator": f"{key} = 1_000{suffix}",
                  "non-ASCII digit": f"{key} = \u0663{suffix}"}  # Arabic-Indic three
    return cases


@pytest.mark.parametrize("key, case, line", [
    pytest.param(key, case, line, id=f"{key}-{case}")
    for key in KEYS for case, line in _bad_lines(key).items()
])
def test_every_key_refuses_bad_text_by_name_and_line(tmp_path, capsys, key, case, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# one bad line\n{line}\n")
    command = KEYS[key].commands[0]
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--sweep-axis", "mux", "--sweep-values", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: " in err
    message = err.split(f"{cfg}:2: ", 1)[1]
    assert key in message
    if case in ("missing unit", "wrong unit"):
        assert all(unit in message for unit in KEYS[key].units)  # one error lists every suffix
    if case in ("digit separator", "non-ASCII digit"):
        assert "cannot parse" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1_000", "\u0663"], ids=["digit separator", "non-ASCII digit"])
def test_sweep_values_refuse_what_a_config_file_refuses(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert main(["sweep", "--sweep-axis", "hops", "--sweep-values", f"2,{value}",
                 "--out", str(out)]) == 2
    assert "cannot parse sweep values" in capsys.readouterr().err
    assert not out.exists()


class TestParsing:
    def test_empty_file_gives_defaults(self):
        for command in COMMAND_KEYS:
            cfg = parse_config_text("", command)
            # chain and sweep resolve these to chip-a and p_link = 0.94; see test_cli
            assert cfg.scenario is None and cfg.noise is None
            assert cfg.lindblad.g_mc == pytest.approx(TWO_PI * 1.3e8)
            assert cfg.hops == 4

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nhops = 7  # trailing comment\n", "chain")
        assert cfg.hops == 7

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r":2: unknown key 'wavelength'"):
            parse_config_text("hops = 2\nwavelength = 1550\n", "chain")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("hops = 2\nhops = 3\n", "chain")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected 'key = value"):
            parse_config_text("hops 4\n", "chain")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("p_link = often\n", "chain")

    @pytest.mark.parametrize("line, key", [
        ("g_mc = nan MHz", "g_mc"), ("t_final = nan ns", "t_final"), ("span = inf km", "span"),
    ])
    def test_non_finite_value_names_key(self, line, key):
        command = "chain" if key == "span" else "pair"
        with pytest.raises(ConfigError, match=f":1: {key} must be finite"):
            parse_config_text(line + "\n", command)

    def test_builtin_scenario_reference(self):
        cfg = parse_config_text("scenario = Metro-B\n", "chain")
        assert cfg.scenario == BUILTIN_SCENARIOS["metro-b"]

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="valid names"):
            parse_config_text("scenario = campus-a\n", "chain")

    def test_scenario_and_inline_keys_conflict(self):
        with pytest.raises(ConfigError, match="cannot be combined"):
            parse_config_text("scenario = chip-a\nm_mux = 8\n", "chain")

    def test_incomplete_inline_scenario(self):
        with pytest.raises(ConfigError, match="missing keys"):
            parse_config_text("alpha = 0.2 dB_per_km\nspan = 10 km\n", "chain")

    def test_fraction_range_enforced(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("q_swap = 1.5\n", "chain")

    @pytest.mark.parametrize("line, key", [
        ("alpha = -1 dB_per_km", "alpha"), ("span = 0 km", "l_span"), ("m_mux = 0", "m_mux"),
    ])
    def test_inline_scenario_range_error_names_source_and_field(self, line, key):
        text = scenario_to_config(BUILTIN_SCENARIOS["metro-c"])
        kept = [ln for ln in text.splitlines() if not ln.startswith(line.split()[0] + " ")]
        with pytest.raises(ConfigError, match=rf"^run\.cfg: {key}"):
            parse_config_text("\n".join([*kept, line]) + "\n", "chain", source="run.cfg")

    def test_count_bounds(self):
        with pytest.raises(ConfigError, match=">= 1"):
            parse_config_text("hops = 0\n", "chain")

    def test_key_the_command_does_not_read_reports_line(self):
        message = r"^run\.cfg:2: the pair command does not read 'hops'$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text("g_mc = 120 MHz\nhops = 2\n", "pair", source="run.cfg")

    def test_noise_and_seed_keys(self):
        cfg = parse_config_text("p_link = 0.9\nq_swap = 0.95\n", "chain")
        assert cfg.noise.p_link == 0.9
        assert cfg.noise.q_swap == 0.95

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg", "pair")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("hops = 3\nscenario = chip-c\n")
        cfg = load_config(path, "chain")
        assert cfg.hops == 3
        assert cfg.scenario.m_mux == 30


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_scenarios_round_trip_exactly(self, name):
        original = BUILTIN_SCENARIOS[name]
        text = scenario_to_config(original)
        loaded = parse_config_text(text, "chain").scenario
        assert loaded == original


class TestRunConfig:
    def test_rejects_empty_formats(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig(formats=())

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown output formats"):
            RunConfig(formats=("csv", "pdf"))

    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan])
    def test_rejects_pclick_override_outside_unit_interval(self, value):
        with pytest.raises(ConfigError, match=r"pclick_override=.* outside \[0, 1\]"):
            RunConfig(pclick_override=value)

    @pytest.mark.parametrize("key, value", [
        *[(key, value) for key in ("t_final", "dt") for value in (math.inf, math.nan, 0.0, -1e-9)],
        ("hops", 2.5),
        ("hops", True),
    ])
    def test_rejects_bad_field_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    def test_fields_cannot_be_assigned(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError, match="'hops'"):
            cfg.hops = 0


def test_readme_config_blocks_load_under_the_commands_they_document(tmp_path):
    """Each ini block of README names its commands in its first line and loads under each."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    documented = {}
    for i, text in enumerate(blocks):
        first = text.splitlines()[0]
        commands = [word for word in re.findall(r"\w+", first) if word in COMMAND_KEYS]
        assert first.startswith("#") and commands, first
        path = tmp_path / f"block{i}.cfg"
        path.write_text(text, encoding="utf-8")
        for command in commands:
            load_config(path, command)
            documented.setdefault(command, set()).update(re.findall(r"^(\w+) =", text, re.M))
    assert documented["pair"] == COMMAND_KEYS["pair"]
