"""Smoke test: each experiment script runs as its own process and writes its files."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from magrep.network import BUILTIN_SCENARIOS

ROOT = Path(__file__).resolve().parents[1]


def script_process(name: str, out: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name: str, out: Path) -> list[str]:
    done = script_process(name, out)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("name, count", [("mux_sweep.py", 1), ("pair_trace.py", 6)])
def test_script_writes_the_files_it_reports(tmp_path, name, count):
    lines = run_script(name, tmp_path)
    written = [Path(line.split("wrote ", 1)[1]) for line in lines if "wrote " in line]
    assert len(written) == count
    for path in written:
        assert path.is_relative_to(tmp_path) and path.stat().st_size > 0


def test_chain_study_writes_one_chain_per_scenario(tmp_path):
    lines = run_script("chain_study.py", tmp_path)
    assert [line.split()[0] for line in lines[1:]] == sorted(BUILTIN_SCENARIOS)
    for name in BUILTIN_SCENARIOS:
        for file in ("chain.csv", "chain.svg"):
            assert (tmp_path / name / file).stat().st_size > 0


# Each value flag is read as its config key, so a value the config grammar or
# the run's constructor refuses exits 2, as the CLI does, with one error line
# that names the flag, before anything is printed or written.
@pytest.mark.parametrize("name, flag, token, message", [
    ("chain_study.py", "--hops", "1_0", "--hops: cannot parse hops = '1_0' as an integer"),
    ("mux_sweep.py", "--pclick", "0.1_5",
     "--pclick: cannot parse pclick_override = '0.1_5' as a number"),
    ("mux_sweep.py", "--pclick", "inf", "--pclick: pclick_override must be finite, got 'inf'"),
    ("mux_sweep.py", "--pclick", "1.5", "pclick_override=1.5 outside [0, 1]"),
    ("mux_sweep.py", "--channels", "1,x", "--channels: cannot parse m_mux = 'x' as an integer"),
])
def test_script_refuses_a_bad_value_with_one_error_line(tmp_path, name, flag, token, message):
    done = script_process(name, tmp_path, flag, token)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"error: {message}"]
    assert done.stdout == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["chain_study.py", "mux_sweep.py", "pair_trace.py"])
def test_script_reports_an_unwritable_output_with_one_error_line(tmp_path, name):
    out = tmp_path / "a-file"
    out.write_text("")
    done = script_process(name, out)
    assert done.returncode == 4
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: cannot create output directory {out}")
