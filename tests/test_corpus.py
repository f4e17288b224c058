"""Byte-identity corpus: the sha256 of every file a fixed set of runs writes.

``corpus.sha256`` beside this file holds one digest per output: the CSV and
SVG files of each command run below, the files of three config-file runs that
carry every unit suffix, and the standard output of the three scripts. The
test regenerates them in process and compares. A last-bit change in a unit
conversion seldom shows in 9 printed digits; ``test_config`` checks those bits.

A change that alters output bytes on purpose rewrites the file with::

    PYTHONPATH=src python tests/test_corpus.py

and names the changed files, with the largest deviation, in CHANGES.md. An
update is a declared output change, never a way to make this test pass.

The ``pair`` path is IEEE arithmetic in plain Python, but ``network`` calls
``pow`` and ``exp`` from the C math library, and the concurrence takes the
``abs`` of a complex number, so on a platform whose libm rounds differently
a 9th printed digit could in principle flip. numpy/BLAS results (node-scan
states, fusion matrices) are left to the benchmark's digests.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

from magrep.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "corpus.sha256"
SCRIPTS = HERE.parent / "scripts"

# Config files: every frequency unit and ns (pair), an inline chip-scale scenario in
# cm and dB_per_cm (chain), and an inline km scenario (sweep).
CONFIGS = {
    "pair-config": (
        "g_mc = 0.1213 GHz\nkappa_d = 1.37 MHz\ngamma_d = 0.517 MHz\n"
        "kappa_phi = 0.000291 GHz\ngamma_phi = 0.313 MHz\nt_final = 7.3 ns\ndt = 0.0123 ns\n"
    ),
    "chain-config": (
        "scenario_name = corpus-chip\nalpha = 0.37 dB_per_cm\nspan = 2.3 cm\n"
        "eta_read = 0.61\neta_conv = 0.47\neta_extra = 0.97\neta_det = 0.93\n"
        "eta_col = 0.91\np_bsa = 0.5\nm_mux = 3\nhops = 6\np_link = 0.951\nq_swap = 0.973\n"
    ),
    "sweep-config": (
        "alpha = 0.191 dB_per_km\nspan = 23.7 km\neta_read = 0.83\neta_conv = 0.57\n"
        "eta_extra = 0.9\neta_det = 0.87\neta_col = 0.79\np_bsa = 0.5\nm_mux = 4\n"
        "hops = 5\n"
    ),
}

SVG = ["--format", "csv,svg"]
RUNS = {
    "pair": ["pair", *SVG],
    "pair-ideal": ["pair", "--ideal", *SVG],
    "chain-metro-c": ["chain", "--scenario", "metro-c", "--hops", "8", *SVG],
    "chain": ["chain", *SVG],
    "sweep-mux": ["sweep", "--sweep-axis", "mux", "--sweep-values", "1,2,4,8,16,30",
                  "--pclick-override", "0.18"],
    "sweep-conv": ["sweep", "--scenario", "metro-a", "--sweep-axis", "conv",
                   "--sweep-values", "0.005,0.05,0.5,0.8"],
    "sweep-hops": ["sweep", "--sweep-axis", "hops", "--sweep-values", "1,2,4,8"],
    "sweep-length": ["sweep", "--scenario", "metro-c", "--sweep-axis", "length",
                     "--sweep-values", "1,5,10,20"],
    "pair-config": ["pair", *SVG],
    "chain-config": ["chain", *SVG],
    "sweep-config": ["sweep", "--sweep-axis", "mux", "--sweep-values", "1,3,9"],
}


def corpus_digests(root: Path) -> dict[str, str]:
    """Run the corpus under ``root``; the sha256 of each output, by ``run/file``."""
    outputs = {}
    for name, argv in RUNS.items():
        out = root / name
        if name in CONFIGS:
            cfg = root / f"{name}.cfg"
            cfg.write_text(CONFIGS[name], encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()):
            if main([*argv, "--out", str(out)]) != 0:
                raise RuntimeError(f"corpus run {name} failed")
        outputs.update({f"{name}/{path.name}": path.read_bytes() for path in out.iterdir()})
    # The scripts print paths under their default, relative output directories.
    cwd, argv = Path.cwd(), sys.argv
    try:
        os.chdir(root)
        for script in ("pair_trace.py", "chain_study.py", "mux_sweep.py"):
            sys.argv = [script]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                runpy.run_path(str(SCRIPTS / script), run_name="__main__")
            outputs[f"scripts/{script}.stdout"] = stdout.getvalue().encode("utf-8")
    finally:
        os.chdir(cwd)
        sys.argv = argv
    return {key: hashlib.sha256(data).hexdigest() for key, data in sorted(outputs.items())}


def read_digests() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_outputs_match_the_committed_digests(tmp_path):
    got, want = corpus_digests(tmp_path), read_digests()
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not changed, f"outputs differ from {DIGESTS.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = corpus_digests(Path(tmp))
    DIGESTS.write_text("".join(f"{d}  {name}\n" for name, d in digests.items()), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
