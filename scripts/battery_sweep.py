#!/usr/bin/env python3
"""Full-charge probability and time-to-full tables across burst lengths.

Defaults: a 100-unit battery on a source with stationary good
probability 0.7, swept over mean bad-burst lengths, driven by the
optimal sleep count under symmetric rewards.
"""

import argparse
import csv
from pathlib import Path

from rfharvest.battery import BatteryConfig, SWEEP_CSV_HEADER, sweep_initial_levels
from rfharvest.beliefs import RewardConfig
from rfharvest.gilbert_elliott import from_burst_parameterization
from rfharvest.threshold import optimal_sleep_time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--pi-g", type=float, default=0.7)
    parser.add_argument("--capacity", type=int, default=100)
    parser.add_argument("--burst-lengths", default="2,5,10,15,20")
    parser.add_argument("--level-step", type=int, default=5)
    args = parser.parse_args()

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
    levels = list(range(0, args.capacity + 1, args.level_step))
    path = out / "battery_absorption.csv"
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER + ("sleep_slots",))
        for t_b in (float(x) for x in args.burst_lengths.split(",")):
            params = from_burst_parameterization(args.pi_g, t_b)
            policy, _ = optimal_sleep_time(params, cfg)
            print(f"burst length {t_b}: sleep count {policy.label()}")
            if policy.never_harvest:
                continue  # a never-harvest policy induces no battery chain
            rows = sweep_initial_levels(params, policy, BatteryConfig(capacity=args.capacity), levels)
            for row in rows:
                writer.writerow(
                    [row[k] for k in SWEEP_CSV_HEADER] + [policy.sleep_slots]
                )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
