#!/usr/bin/env python3
"""Trace single-node pair generation, lossy and lossless, and print the peaks."""
import argparse
import csv
import sys

from magrep.cli import cmd_pair, exit_code_for
from magrep.config import RunConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/pair", help="output directory")
    args = ap.parse_args()

    for label, ideal in (("lossy", False), ("ideal", True)):
        cfg = RunConfig(output_dir=f"{args.out}/{label}", formats=("csv", "svg"), ideal=ideal)
        files = cmd_pair(cfg)
        with open(files[0], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        peak = max(rows, key=lambda row: float(row["concurrence"]))
        print(f"{label}: peak concurrence {float(peak['concurrence']):.4f} "
              f"at t = {float(peak['t_ns']):.3f} ns")
        for f in files:
            print(f"  wrote {f}")


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exit_code_for(exc))
