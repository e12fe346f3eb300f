#!/usr/bin/env python3
"""Learner-versus-baselines experiment on the reference bursty chain.

Desk scale (30 paths x 20 runs x 500 slots) takes about 15 s on one
core of a 2-vCPU Xeon VM; paper scale multiplies the paths by ten and
the runs by five.
"""

import argparse
from pathlib import Path

from rfharvest.harness import learning_comparison, write_result_csv, write_result_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--scale", choices=("desk", "paper"), default="desk")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=20)
    args = parser.parse_args()

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = learning_comparison(scale=args.scale, base_seed=args.seed, k=args.k)
    with open(out / f"learning_comparison_{args.scale}.csv", "w") as fh:
        write_result_csv(result, fh)
    with open(out / f"learning_comparison_{args.scale}.json", "w") as fh:
        write_result_json(result, fh)
    for key in result.policy_keys:
        print(f"{key:35s} mean {result.means[key]:9.2f}  se {result.std_errors[key]:7.2f}")
    gap, se = result.paired_gap(result.policy_keys[0], "always_harvest")
    print(f"paired gap over always_harvest: {gap:.2f} (se {se:.2f})")


if __name__ == "__main__":
    main()
