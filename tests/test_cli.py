"""CLI commands, CSV schemas, SVG output, determinism and exit codes."""
import contextlib
import csv
import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from magrep import dynamics, excitation, network
from magrep.cli import MAX_CSV_ROWS, _fmt, _sweep_run, cmd_pair, exit_code_for, main
from magrep.config import COMMAND_KEYS, KEYS, ConfigError, RunConfig
from magrep.dynamics import IntegrationError


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _pair_step_ns() -> float:
    """The default pair grid's step, in the config file's ns."""
    p = dynamics.LindbladParams()
    return excitation.pair_generation_time(p) / excitation.pair_steps(p) * 1e9


# A value other than the default for each key of a pair config.
OTHER_PAIR_VALUES = {
    "g_mc": "120 MHz", "kappa_d": "2 MHz", "gamma_d": "1 MHz", "kappa_phi": "0.6 MHz",
    "gamma_phi": "0.6 MHz", "t_final": "2 ns", "dt": "0.01 ns",
}


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    assert main(["pair", "--out", str(out), "--format", "csv,svg"]) == 0
    return out


class TestPairCommand:
    def test_trace_schema(self, pair_dir):
        header, rows = read_csv(pair_dir / "pair_trace.csv")
        assert header == ["t_ns", "concurrence", "pop_00", "pop_01", "pop_10", "pop_11"]
        assert len(rows) > 100

    def test_trace_consistency(self, pair_dir):
        header, rows = read_csv(pair_dir / "pair_trace.csv")
        data = np.array(rows, dtype=float)
        assert data[0, 0] == 0.0
        assert np.all(np.diff(data[:, 0]) > 0)
        # populations sum to the trace
        assert np.allclose(data[:, 2:].sum(axis=1), 1.0, atol=1e-6)
        p = dynamics.LindbladParams()
        t_q = dynamics.pair_generation_time(p)
        n_q = dynamics.pair_steps(p)
        trace = dynamics.evolve(dynamics.initial_pair_state(p), p, 3 * t_q, dt=t_q / n_q)
        assert len(trace.times) == len(rows) == 3 * n_q + 1
        assert data[:, 1].max() == pytest.approx(trace.concurrences.max(), abs=1e-9)

    def test_dm_schema(self, pair_dir):
        header, rows = read_csv(pair_dir / "pair_dm.csv")
        assert header == ["row_label", "col_label", "re", "im", "abs"]
        assert len(rows) == 16
        labels = {r[0] for r in rows}
        assert labels == {"00", "01", "10", "11"}
        for r in rows:
            re, im, mag = float(r[2]), float(r[3]), float(r[4])
            assert mag == pytest.approx(math.hypot(re, im), abs=1e-8)

    def test_dm_matches_generator(self, pair_dir):
        _, rows = read_csv(pair_dir / "pair_dm.csv")
        state, _ = dynamics.generate_bell_pair(dynamics.LindbladParams())
        idx = {"00": 0, "01": 1, "10": 2, "11": 3}
        for r in rows:
            entry = state.matrix[idx[r[0]], idx[r[1]]]
            assert float(r[2]) == pytest.approx(entry.real, abs=1e-9)
            assert float(r[3]) == pytest.approx(entry.imag, abs=1e-9)

    @pytest.mark.parametrize("t_final_ns, quarters", [(None, 3), (0.5, 1)])
    def test_one_integration_whose_quarter_period_record_is_the_snapshot(
        self, tmp_path, monkeypatch, t_final_ns, quarters
    ):
        traces, numpy_runs = [], []
        integrate_pair = excitation.integrate_pair

        def recording_integrate(*args, **kwargs):
            traces.append(integrate_pair(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(excitation, "integrate_pair", recording_integrate)
        for name in ("evolve", "generate_bell_pair"):
            monkeypatch.setattr(dynamics, name, lambda *a, name=name, **k: numpy_runs.append(name))
        args = ["pair", "--out", str(tmp_path)]
        if t_final_ns is not None:  # shorter than the quarter period
            (tmp_path / "run.cfg").write_text(f"t_final = {t_final_ns} ns\n")
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 0
        assert len(traces) == 1 and numpy_runs == []

        [trace] = traces
        p = dynamics.LindbladParams()
        t_q = dynamics.pair_generation_time(p)
        n_q = dynamics.pair_steps(p)
        assert len(trace.times) == quarters * n_q + 1
        assert trace.times[n_q] == pytest.approx(t_q, rel=1e-12)
        assert trace.times[-1] == pytest.approx(quarters * t_q, rel=1e-12)
        _, rows = read_csv(tmp_path / "pair_dm.csv")
        rho = trace.state(n_q)
        assert rows == [
            [a, b, _fmt(rho[i][j].real), _fmt(rho[i][j].imag), _fmt(abs(rho[i][j]))]
            for i, a in enumerate(["00", "01", "10", "11"])
            for j, b in enumerate(["00", "01", "10", "11"])
        ]

    def test_svg_is_valid_xml(self, pair_dir):
        tree = ET.parse(pair_dir / "pair_trace.svg")
        tag = tree.getroot().tag
        assert tag.endswith("svg")

    def test_ideal_flag_reaches_unit_concurrence(self, tmp_path):
        assert main(["pair", "--ideal", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "pair_trace.csv")
        top = max(float(r[1]) for r in rows)
        assert top >= 0.999

    @pytest.mark.parametrize("key", sorted(COMMAND_KEYS["pair"]))
    def test_every_pair_key_changes_the_output(self, tmp_path, pair_dir, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {OTHER_PAIR_VALUES[key]}\n")
        out = tmp_path / "out"
        assert main(["pair", "--config", str(cfg), "--out", str(out)]) == 0
        names = ("pair_trace.csv", "pair_dm.csv")
        changed = [(out / name).read_bytes() != (pair_dir / name).read_bytes() for name in names]
        assert any(changed)

    @pytest.mark.parametrize("key", ["omega_c", "omega_m", "dim_c", "dim_m"])
    def test_removed_node_key_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        value = "12 GHz" if key.startswith("omega") else "3"
        cfg.write_text(f"g_mc = 120 MHz\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["pair", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_truncation_changes_no_byte(self, tmp_path):
        written = {}
        for dim in (2, 3):
            p = dynamics.LindbladParams(dim_c=dim, dim_m=dim)
            cfg = RunConfig(lindblad=p, output_dir=tmp_path / str(dim), formats=("csv", "svg"))
            written[dim] = {path.name: path.read_bytes() for path in cmd_pair(cfg)}
        assert len(written[2]) == 3 and written[3] == written[2]


class TestChainCommand:
    def test_chip_a_matches_library(self, tmp_path):
        assert main(["chain", "--scenario", "chip-a", "--hops", "4", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "chain.csv")
        assert header == ["hop", "fidelity", "concurrence", "p_hop", "p_cumulative", "usable"]
        report = network.simulate_chain(network.BUILTIN_SCENARIOS["chip-a"], 4)
        assert len(rows) == 4
        for row, rec in zip(rows, report.hops):
            assert int(row[0]) == rec.hop
            assert float(row[1]) == pytest.approx(rec.fidelity, abs=1e-9)
            assert float(row[4]) == pytest.approx(rec.p_cumulative, rel=1e-8)
            assert row[5] == ("true" if rec.usable else "false")

    def test_single_hop_single_row(self, tmp_path):
        assert main(["chain", "--hops", "1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "chain.csv")
        assert len(rows) == 1

    def test_click_override_multiplexed(self, tmp_path):
        assert main([
            "chain", "--scenario", "chip-b", "--pclick-override", "0.18",
            "--hops", "4", "--out", str(tmp_path),
        ]) == 0
        _, rows = read_csv(tmp_path / "chain.csv")
        for row in rows:
            assert float(row[3]) == pytest.approx(0.796, abs=1e-3)

    def test_svg_has_three_curves(self, tmp_path):
        assert main(["chain", "--out", str(tmp_path), "--format", "svg"]) == 0
        text = (tmp_path / "chain.svg").read_text()
        assert text.count("<polyline") == 3
        assert "cumulative success" in text

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["chain", "--scenario", "nowhere"]) == 2
        err = capsys.readouterr().err
        assert "chip-a" in err and "metro-c" in err


class TestSweepCommand:
    def test_mux_sweep_reference_points(self, tmp_path):
        assert main([
            "sweep", "--sweep-axis", "mux", "--sweep-values", "1,8,30",
            "--pclick-override", "0.18", "--hops", "1", "--out", str(tmp_path),
        ]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == [
            "axis", "value", "hop", "fidelity", "concurrence", "p_click",
            "p_hop", "p_cumulative", "usable",
        ]
        got = [float(r[6]) for r in rows]
        assert got == pytest.approx([0.18, 0.7956, 0.9974], abs=2e-2)
        assert got == pytest.approx(
            [network.hop_success(0.18, m) for m in (1, 8, 30)], rel=1e-9
        )

    def test_rows_ordered_by_value_then_hop(self, tmp_path):
        assert main([
            "sweep", "--sweep-axis", "mux", "--sweep-values", "30,1,8",
            "--hops", "2", "--out", str(tmp_path),
        ]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        keys = [(float(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 6

    def test_conversion_sweep_monotone(self, tmp_path):
        assert main([
            "sweep", "--sweep-axis", "conv", "--sweep-values", "0.005,0.5,0.8",
            "--scenario", "metro-a", "--hops", "1", "--out", str(tmp_path),
        ]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        clicks = [float(r[5]) for r in rows]
        assert clicks == sorted(clicks)
        assert clicks[0] < clicks[1] < clicks[2]

    def test_hops_sweep_matches_chain(self, tmp_path):
        out_a = tmp_path / "sweep"
        out_b = tmp_path / "chain"
        assert main([
            "sweep", "--sweep-axis", "hops", "--sweep-values", "1",
            "--scenario", "chip-a", "--out", str(out_a),
        ]) == 0
        assert main(["chain", "--scenario", "chip-a", "--hops", "1", "--out", str(out_b)]) == 0
        _, sweep_rows = read_csv(out_a / "sweep.csv")
        _, chain_rows = read_csv(out_b / "chain.csv")
        assert len(sweep_rows) == 1
        assert sweep_rows[0][2:5] == chain_rows[0][0:3]
        assert sweep_rows[0][6:] == chain_rows[0][3:]

    def test_length_sweep_rows_per_value_per_hop(self, tmp_path):
        assert main([
            "sweep", "--sweep-axis", "length", "--sweep-values", "5,10",
            "--scenario", "metro-c", "--hops", "3", "--out", str(tmp_path),
        ]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 6

    def test_each_axis_sets_its_field(self):
        cfg = RunConfig(scenario=network.BUILTIN_SCENARIOS["metro-c"], hops=3)
        mux = _sweep_run(cfg, "mux", 8.0)
        assert mux.scenario.m_mux == 8 and isinstance(mux.scenario.m_mux, int)
        assert _sweep_run(cfg, "conv", 0.5).scenario.eta_conv == 0.5
        assert _sweep_run(cfg, "length", 20.0).scenario.l_span == 20.0
        hops = _sweep_run(cfg, "hops", 7.0)
        assert hops.hops == 7 and hops.scenario == cfg.scenario
        assert all(_sweep_run(cfg, axis, 1.0).hops == 3 for axis in ("mux", "conv", "length"))

    def test_illegal_axis_value_names_axis(self, capsys):
        assert main([
            "sweep", "--sweep-axis", "mux", "--sweep-values", "2.5",
        ]) == 2
        assert "mux" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, value, key", [
        ("conv", "1.5", "eta_conv"), ("length", "-5", "l_span"), ("hops", "0", "hops"),
        ("mux", "0", "m_mux"),
    ])
    def test_out_of_range_value_names_field(self, tmp_path, capsys, axis, value, key):
        assert main(["sweep", "--sweep-axis", axis, f"--sweep-values={value}",
                     "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_illegal_conv_value(self):
        assert main(["sweep", "--sweep-axis", "conv", "--sweep-values", "1.5"]) == 2

    def test_unparseable_values(self):
        assert main(["sweep", "--sweep-axis", "mux", "--sweep-values", "a,b"]) == 2

    def test_non_finite_values_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--sweep-axis", "length", "--sweep-values", "inf",
                     "--out", str(out)]) == 2
        assert "--sweep-values" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


class TestOutputBound:
    def test_chain_at_the_limit_runs(self, tmp_path):
        assert main(["chain", "--hops", str(MAX_CSV_ROWS), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "chain.csv")
        assert len(rows) == MAX_CSV_ROWS

    @pytest.mark.parametrize("argv", [
        ["chain", "--hops", str(MAX_CSV_ROWS + 1)],
        ["chain", "--hops", "100000000"],
        ["sweep", "--sweep-axis", "hops", "--sweep-values", f"5000,{MAX_CSV_ROWS - 4999}"],
        ["sweep", "--sweep-axis", "mux", "--sweep-values", "1,2,3", "--hops", "3334"],
    ])
    def test_oversized_run_is_rejected_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "hops" in err and f"limit of {MAX_CSV_ROWS}" in err
        assert not out.exists()

    def test_oversized_config_file_chain_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"hops = {MAX_CSV_ROWS + 1}\n")
        assert main(["chain", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_pair_at_the_limit_runs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"t_final = {(MAX_CSV_ROWS - 1) * _pair_step_ns()!r} ns\n")
        assert main(["pair", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "pair_trace.csv")
        assert len(rows) == MAX_CSV_ROWS

    @pytest.mark.parametrize("line", [
        "t_final = 1e9 ns",
        "dt = 1e-20 ns",
        "dt = 1e-310 ns",  # t_q / dt overflows to inf
        "t_final = 1e308 ns",
        f"t_final = {MAX_CSV_ROWS * _pair_step_ns()!r} ns",
    ])
    def test_oversized_pair_is_rejected_before_integrating(
        self, tmp_path, capsys, monkeypatch, line
    ):
        monkeypatch.setattr(excitation, "integrate_pair", None)  # must not be reached
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["pair", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "t_final/dt" in err and f"limit of {MAX_CSV_ROWS}" in err
        assert not out.exists()


class TestConfigIntegration:
    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = metro-c\nhops = 2\n")
        out = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "chain.csv")
        assert len(rows) == 2
        report = network.simulate_chain(network.BUILTIN_SCENARIOS["metro-c"], 2)
        assert float(rows[0][3]) == pytest.approx(report.hops[0].p_hop, rel=1e-8)

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hops = 2\npclick_override = 0.5\n")
        out = tmp_path / "out"
        assert main(["chain", "--config", str(cfg), "--hops", "5", "--pclick-override", "0.18",
                     "--format", "CSV, svg", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["chain.csv", "chain.svg"]
        _, rows = read_csv(out / "chain.csv")
        assert len(rows) == 5
        assert float(rows[0][3]) == pytest.approx(0.18, rel=1e-8)

    def test_empty_config_chain_uses_chip_a_and_default_noise(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        assert main(["chain", "--config", str(cfg), "--format", "csv,svg",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "chain.csv")
        chip_a = network.BUILTIN_SCENARIOS["chip-a"]
        assert rows[0][1] == _fmt((3 * 0.94 + 1) / 4)  # one link at p_link = 0.94
        assert rows[0][3] == _fmt(network.click_probability(chip_a))
        assert "Repeater chain (chip-a)" in (tmp_path / "chain.svg").read_text()

    @pytest.mark.parametrize("command, lines", [
        (["pair"], ["g_mc = 120 MHz", "hops = 3"]),
        (["pair"], ["scenario = metro-c"]),
        (["pair"], ["p_link = 0.5"]),
        (["chain"], ["hops = 3", "t_final = 5 ns"]),
        (["chain"], ["g_mc = 1 MHz"]),
        (["sweep", "--sweep-axis", "mux", "--sweep-values", "1,2"], ["g_mc = 1 MHz"]),
        # the chain SVG's title; sweep writes the name nowhere
        (["sweep", "--sweep-axis", "mux", "--sweep-values", "1,2"], ["scenario_name = metro-c"]),
    ])
    def test_config_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        key = lines[-1].split()[0]
        err = capsys.readouterr().err
        assert f"{cfg}:{len(lines)}: the {command[0]} command does not read {key!r}" in err
        assert not out.exists()

    def test_pair_config_of_node_keys_runs(self, tmp_path):
        cfg = tmp_path / "node.cfg"  # the benchmark's pair-trace keys
        cfg.write_text("g_mc = 120 MHz\nkappa_d = 1.5 MHz\ngamma_d = 0.4 MHz\n"
                       "kappa_phi = 0.2 MHz\ngamma_phi = 0.3 MHz\n")
        assert main(["pair", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert main(["chain", "--config", str(cfg)]) == 2

    def test_seed_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        assert main(["chain", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", [
        ("--hops", "0", "hops"),
        ("--format", "pdf", "formats"),
        ("--format", ",", "format"),
        ("--pclick-override", "1.5", "pclick_override"),
        ("--pclick-override", "nan", "pclick_override"),
    ])
    def test_invalid_flag_exits_2_naming_the_key(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "out"
        assert main(["chain", flag, value, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pair", "--hops", "3"],
        ["pair", "--scenario", "metro-c"],
        ["pair", "--pclick-override", "0.5"],
        ["chain", "--ideal"],
        ["sweep", "--sweep-axis", "mux", "--sweep-values", "1", "--format", "csv"],
        ["sweep", "--sweep-axis", "mux", "--sweep-values", "1", "--ideal"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_seed_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--seed", "1"])
        assert exc.value.code == 2

    def test_zero_coupling_pair_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g_mc = 0 MHz\n")
        assert main(["pair", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "g_mc" in capsys.readouterr().err

    def test_unstable_step_exits_with_numerical_failure(self, tmp_path, capsys):
        # The pair grid caps dt at the quarter period, where the exchange alone is
        # stable; a 2000 MHz cavity decay puts that step beyond the RK4 stability
        # limit, so positivity is lost in the first step.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 5 ns\nt_final = 100 ns\nkappa_d = 2000 MHz\n")
        assert main(["pair", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "positive semidefinite" in capsys.readouterr().err


class TestDeterminismAndErrors:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["pair", "--out", str(out)]) == 0
            assert main(["chain", "--out", str(out)]) == 0
        for name in ("pair_trace.csv", "pair_dm.csv", "chain.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_output_path_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["chain", "--out", str(blocker)]) == 4
        assert str(blocker) in capsys.readouterr().err

    def test_exit_code_mapping(self):
        assert exit_code_for(ConfigError("x")) == 2
        assert exit_code_for(ValueError("x")) == 2
        assert exit_code_for(IntegrationError("x")) == 3
        assert exit_code_for(OSError("x")) == 4

    def test_csv_uses_nine_significant_digits(self, tmp_path):
        assert main(["chain", "--scenario", "chip-a", "--hops", "1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "chain.csv")
        p_hop = network.hop_success(network.click_probability(network.BUILTIN_SCENARIOS["chip-a"]), 1)
        assert rows[0][3] == format(p_hop, ".9g")

    @pytest.mark.parametrize("value, text", [
        (np.int64(-7), "-7"),
        (np.float64(1 / 3), "0.333333333"),
        (np.float32(0.1), "0.100000001"),
        (np.bool_(True), "true"),
        (True, "true"),
        (False, "false"),
        (3, "3"),
        (2.5e-10, "2.5e-10"),
    ])
    def test_fmt_on_numpy_and_python_scalars(self, value, text):
        assert _fmt(value) == text


# Random config lines and flags for the exit-code contract: known and unknown keys,
# units in any case, and values that are out of range, non-finite, oversized, hex
# or non-ASCII digits. Every count stays small enough for a run to take milliseconds.
_FUZZ_VALUES = ["1", "0", "-1", "0.5", "2.5", "130", "1e-3", "nan", "-inf", "1e400", "0x10",
                "٣", "1_000", "chip-a", "Metro-C", "often"]
_FUZZ_UNITS = ["", " GHz", " mhz", " NS", " km", " Cm", " dB_per_km", " DB_PER_CM", " furlong",
               " MHz extra"]
_FUZZ_LINE = st.one_of(
    st.builds("{} = {}{}".format, st.sampled_from([*KEYS, "omega_c", "dim_c", "seed", "G_MC"]),
              st.sampled_from(_FUZZ_VALUES), st.sampled_from(_FUZZ_UNITS)),
    st.sampled_from(["# comment", "", "hops", "= 3", "hops = ", "a = b = c"]),
)
_FUZZ_FLAGS = [["--ideal"], ["--format", "csv,svg"], ["--format", "pdf"], ["--hops", "3"],
               ["--hops", "0"], ["--scenario", "metro-c"], ["--scenario", "nowhere"],
               ["--pclick-override", "0.3"], ["--pclick-override", "nan"]]


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["pair", "chain", "sweep"]),
    lines=st.lists(_FUZZ_LINE, max_size=6),
    flags=st.lists(st.sampled_from(_FUZZ_FLAGS), max_size=3),
    axis=st.sampled_from(["mux", "conv", "hops", "length"]),
    values=st.sampled_from(["1,2", "0.5", "1e400", "٣", "0x10", "nan", "", "3,30"]),
)
def test_random_inputs_exit_with_a_documented_code(tmp_path_factory, command, lines, flags,
                                                  axis, values):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(root / "out"),
            *(arg for flag in flags for arg in flag)]
    if command == "sweep":
        argv += ["--sweep-axis", axis, "--sweep-values", values]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a flag the command does not declare
            code = exc.code
    assert code in (0, 2, 3, 4), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
