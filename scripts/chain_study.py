#!/usr/bin/env python3
"""Four-hop chain study across all six built-in deployment scenarios."""
import argparse
import csv

from magrep import network
from magrep.cli import cmd_chain
from magrep.config import RunConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/chain", help="output directory")
    ap.add_argument("--hops", type=int, default=4)
    args = ap.parse_args()

    print(f"{'scenario':10s} {'p_click':>11s} {'p_hop':>9s} {'P_cum':>11s} "
          f"{'F_final':>8s} usable")
    for name in sorted(network.BUILTIN_SCENARIOS):
        cfg = RunConfig(
            scenario=network.BUILTIN_SCENARIOS[name],
            hops=args.hops,
            output_dir=f"{args.out}/{name}",
            formats=("csv", "svg"),
        )
        with open(cmd_chain(cfg)[0], newline="", encoding="utf-8") as fh:
            last = list(csv.DictReader(fh))[-1]
        # chain.csv has no p_click column: perfbench/oracle.check_chain pins its header exactly
        print(
            f"{name:10s} {network.click_probability(cfg.scenario):11.3e} "
            f"{float(last['p_hop']):9.4f} {float(last['p_cumulative']):11.3e} "
            f"{float(last['fidelity']):8.4f} {last['usable'] == 'true'}"
        )


if __name__ == "__main__":
    main()
