"""Smoke test: each experiment script runs as its own process and writes its files."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from magrep.network import BUILTIN_SCENARIOS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, out: Path) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
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
