#!/usr/bin/env python3
"""Multiplexing gain at a pinned single-channel click probability."""
import argparse
import csv

from magrep import network
from magrep.cli import cmd_sweep
from magrep.config import RunConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/mux", help="output directory")
    ap.add_argument("--pclick", type=float, default=0.18)
    ap.add_argument("--channels", default="1,2,4,8,16,30")
    args = ap.parse_args()

    values = [int(v) for v in args.channels.split(",")]
    cfg = RunConfig(
        scenario=network.BUILTIN_SCENARIOS["chip-a"],
        hops=4,
        output_dir=args.out,
        pclick_override=args.pclick,
    )
    files = cmd_sweep(cfg, "mux", [float(v) for v in values])
    with open(files[0], newline="", encoding="utf-8") as fh:
        hop4 = {int(float(row["value"])): row for row in csv.DictReader(fh) if row["hop"] == "4"}

    print(f"single-channel click probability pinned at {args.pclick}")
    print(f"{'channels':>8s} {'p_hop':>8s} {'P_cum(4 hops)':>14s}")
    for m in values:
        print(f"{m:8d} {float(hop4[m]['p_hop']):8.4f} {float(hop4[m]['p_cumulative']):14.5f}")
    for f in files:
        print(f"wrote {f}")


if __name__ == "__main__":
    main()
