#!/usr/bin/env python3
"""Multiplexing gain at a pinned single-channel click probability."""
import argparse
import csv
import sys

from magrep import network
from magrep.cli import cmd_sweep, exit_code_for
from magrep.config import RunConfig, parse_value


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/mux", help="output directory")
    ap.add_argument("--pclick", default="0.18")
    ap.add_argument("--channels", default="1,2,4,8,16,30")
    args = ap.parse_args()

    pclick = parse_value("pclick_override", args.pclick, None, "--pclick")
    values = [parse_value("m_mux", v, None, "--channels") for v in args.channels.split(",")]
    cfg = RunConfig(
        scenario=network.BUILTIN_SCENARIOS["chip-a"],
        hops=4,
        output_dir=args.out,
        pclick_override=pclick,
    )
    files = cmd_sweep(cfg, "mux", values)
    with open(files[0], newline="", encoding="utf-8") as fh:
        hop4 = {int(row["value"]): row for row in csv.DictReader(fh) if row["hop"] == "4"}

    print(f"single-channel click probability pinned at {pclick}")
    print(f"{'channels':>8s} {'p_hop':>8s} {'P_cum(4 hops)':>14s}")
    for m in values:
        print(f"{m:8d} {float(hop4[m]['p_hop']):8.4f} {float(hop4[m]['p_cumulative']):14.5f}")
    for f in files:
        print(f"wrote {f}")


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exit_code_for(exc))
