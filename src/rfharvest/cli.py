"""Command-line front end.

Subcommands mirror the library: solve (value iteration at one
parameter point), policy (closed-form optimal sleep count), table
(sleep-count lookup tables over a parameter grid), battery (absorption
tables), learn (posterior-sampling episodes as JSON lines), compare
(learner-versus-baselines experiment). Flags override values from an
optional JSON config file; all randomness flows from --seed.

Exit codes: 0 success, 1 runtime error, 2 usage error; ``main``
alone prints a failing command's ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import battery as battery_mod
from . import harness as harness_mod
from .beliefs import RewardConfig
from .gilbert_elliott import GEParams, from_burst_parameterization
from .learning import SleepTimePlanner, run_learner
from .threshold import (
    STANDARD_PI_G,
    STANDARD_T_B,
    LookupTable,
    ThresholdPolicy,
    build_lookup_table,
    grid_axis,
    optimal_sleep_time,
    sleep_time_from_threshold,
)
from .value_iteration import VISettings, harvest_crossover, solve


class UsageError(Exception):
    pass


def _from_flags(build, *args, **kwargs):
    """Build an object from flag values; its ValueError is a usage error.
    Flags parse as plain numbers, and the object states their domain."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _positive_int(text: str) -> int:
    # for the counts that no object checks before work starts
    x = int(text)
    if x < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {x}")
    return x


def _seed(text: str) -> int:
    # no object takes the seed before work starts; a UsageError passes
    # argparse by, so main prints it as one error: line
    x = int(text)
    if x < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {x}")
    return x


def _add_chain_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, help="good-to-bad transition probability")
    parser.add_argument("--q", type=float, help="bad-to-good transition probability")
    parser.add_argument("--pi-g", type=float, help="long-run good-state probability")
    parser.add_argument("--t-b", type=float, help="mean bad-burst length (slots)")


def _add_reward_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r1", type=float, default=10.0, help="reward per successful harvest")
    parser.add_argument("--r0", type=float, default=1.0, help="cost per failed harvest")
    parser.add_argument("--gamma", type=float, default=0.99, help="discount factor in [0, 1)")


def _chain_from_args(args) -> GEParams:
    has_pq = args.p is not None or args.q is not None
    has_burst = args.pi_g is not None or args.t_b is not None
    if has_pq and has_burst:
        raise UsageError("give either --p/--q or --pi-g/--t-b, not both")
    if has_pq:
        if args.p is None or args.q is None:
            raise UsageError("--p and --q must be given together")
        return _from_flags(GEParams, p=args.p, q=args.q)
    if has_burst:
        if args.pi_g is None or args.t_b is None:
            raise UsageError("--pi-g and --t-b must be given together")
        return _from_flags(from_burst_parameterization, args.pi_g, args.t_b)
    raise UsageError("chain parameters required: --p/--q or --pi-g/--t-b")


def _reward_from_args(args) -> RewardConfig:
    return _from_flags(RewardConfig, r1=args.r1, r0=args.r0, gamma=args.gamma)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_solve(args) -> int:
    params = _chain_from_args(args)
    cfg = _reward_from_args(args)
    settings = _from_flags(VISettings, epsilon=args.epsilon, max_iterations=args.max_iterations)
    result = solve(params, cfg, settings=settings)
    bbar = harvest_crossover(result.value, params, cfg)
    policy = sleep_time_from_threshold(bbar, params)
    print(f"iterations {result.iterations}")
    print(f"epsilon {_fmt(result.epsilon)}")
    print(f"value_after_failure {_fmt(result.value.value(params.q))}")
    print(f"value_after_success {_fmt(result.value.value(1.0 - params.p))}")
    print(f"crossover_belief {_fmt(bbar)}")
    print(f"sleep_slots {policy.label()}")
    return 0


def cmd_policy(args) -> int:
    params = _chain_from_args(args)
    cfg = _reward_from_args(args)
    policy, value = optimal_sleep_time(params, cfg)
    print(f"p {_fmt(params.p)}")
    print(f"q {_fmt(params.q)}")
    print(f"sleep_slots {policy.label()}")
    print(f"value_after_success {_fmt(value.v_good)}")
    print(f"value_after_failure {_fmt(value.v_fail)}")
    print(f"value_at_wakeup {_fmt(value.v_wake)}")
    return 0


def cmd_table(args) -> int:
    cfg = _reward_from_args(args)
    table = _from_flags(
        build_lookup_table,
        pi_g_axis=grid_axis(args.pi_g_min, args.pi_g_max, args.pi_g_steps),
        t_b_axis=grid_axis(args.t_b_min, args.t_b_max, args.t_b_steps),
        cfg=cfg,
    )
    with open(args.output, "w") as fh:
        if args.format == "csv":
            table.write_csv(fh)
        else:
            table.dump_json(fh)
    print(f"wrote {args.output}")
    return 0


def cmd_battery(args) -> int:
    params = _chain_from_args(args)
    cfg = _reward_from_args(args)
    config = _from_flags(battery_mod.BatteryConfig, capacity=args.capacity)
    if args.sleep_slots is not None:
        policy = _from_flags(ThresholdPolicy.sleep, args.sleep_slots)
    else:
        policy, _ = optimal_sleep_time(params, cfg)
        if policy.never_harvest:
            raise battery_mod.PolicyNeverHarvests("optimal policy never harvests, give --sleep-slots explicitly")
    if args.levels:
        levels = _from_flags(lambda: sorted({int(x) for x in args.levels.split(",")}))
        _from_flags(config.level_array, levels)
    else:
        levels = list(range(0, args.capacity + 1, args.level_step))
    rows = battery_mod.sweep_initial_levels(params, policy, config, levels)
    with open(args.output, "w") as fh:
        battery_mod.write_sweep_csv(rows, fh)
    print(f"wrote {args.output}")
    return 0


@contextlib.contextmanager
def _replaced_on_success(path: str):
    """A text file for ``path`` whose contents land there only if the
    block completes: they go to a sibling temporary file that
    ``os.replace`` then moves onto ``path``, so a command that fails
    leaves no new file and an earlier one untouched. A path that exists
    but is not a regular file (a pipe, /dev/stdout) is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def cmd_learn(args) -> int:
    params = _chain_from_args(args)
    cfg = _reward_from_args(args)
    table = None
    if args.table:
        with open(args.table) as fh:
            table = _from_flags(LookupTable.load_json, fh)
    planner = _from_flags(SleepTimePlanner, cfg, table)  # refuses a table built for another reward
    with _replaced_on_success(args.output) as fh:
        for episode in range(args.episodes):
            total = run_learner(params, cfg, args.k, args.horizon, args.seed + episode, fh, planner)
            print(f"episode {episode} total_discounted_reward {_fmt(total)}")
    print(f"wrote {args.output}")
    return 0


def cmd_compare(args) -> int:
    result = harness_mod.learning_comparison(scale=args.scale, base_seed=args.seed, k=args.k)
    with open(args.output, "w") as fh:
        if args.format == "csv":
            harness_mod.write_result_csv(result, fh)
        else:
            harness_mod.write_result_json(result, fh)
    for key in result.policy_keys:
        print(f"{key} mean {_fmt(result.means[key])} se {_fmt(result.std_errors[key])}")
    learner = result.policy_keys[0]
    gap, se = result.paired_gap(learner, "always_harvest")
    print(f"paired_gap {learner} over always_harvest mean {_fmt(gap)} se {_fmt(se)}")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfharvest",
        description="Harvest/sleep policies for bursty ambient energy arrivals",
        allow_abbrev=False,  # _apply_config_defaults reads only the full --config
    )
    parser.add_argument("--config", help="JSON file with flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="value iteration at one parameter point")
    _add_chain_flags(p_solve)
    _add_reward_flags(p_solve)
    p_solve.add_argument("--epsilon", type=float, default=None, help="stopping-rule error bound")
    p_solve.add_argument("--max-iterations", type=int, default=VISettings.max_iterations)
    p_solve.set_defaults(func=cmd_solve)

    p_policy = sub.add_parser("policy", help="closed-form optimal sleep count")
    _add_chain_flags(p_policy)
    _add_reward_flags(p_policy)
    p_policy.set_defaults(func=cmd_policy)

    p_table = sub.add_parser("table", help="sleep-count lookup table over a grid")
    _add_reward_flags(p_table)
    pi_g_min, pi_g_max, pi_g_steps = STANDARD_PI_G
    t_b_min, t_b_max, t_b_steps = STANDARD_T_B
    p_table.add_argument("--pi-g-min", type=float, default=pi_g_min)
    p_table.add_argument("--pi-g-max", type=float, default=pi_g_max)
    p_table.add_argument("--pi-g-steps", type=int, default=pi_g_steps)
    p_table.add_argument("--t-b-min", type=float, default=t_b_min)
    p_table.add_argument("--t-b-max", type=float, default=t_b_max)
    p_table.add_argument("--t-b-steps", type=int, default=t_b_steps)
    p_table.add_argument("--output", required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    p_batt = sub.add_parser("battery", help="full-charge absorption table")
    _add_chain_flags(p_batt)
    _add_reward_flags(p_batt)
    p_batt.add_argument("--capacity", type=int, default=100)
    p_batt.add_argument("--sleep-slots", type=int, default=None, help="override the optimal sleep count")
    p_batt.add_argument("--levels", default=None, help="comma-separated initial levels")
    p_batt.add_argument("--level-step", type=_positive_int, default=10)
    p_batt.add_argument("--output", required=True)
    p_batt.set_defaults(func=cmd_battery)

    p_learn = sub.add_parser("learn", help="posterior-sampling learner episodes")
    _add_chain_flags(p_learn)
    _add_reward_flags(p_learn)
    p_learn.add_argument("--k", type=_positive_int, default=20, help="posterior truncation size")
    p_learn.add_argument("--horizon", type=_positive_int, default=500)
    p_learn.add_argument("--episodes", type=_positive_int, default=1)
    p_learn.add_argument("--seed", type=_seed, default=0)
    p_learn.add_argument("--table", default=None, help="JSON lookup table to plan from")
    p_learn.add_argument("--output", required=True, help="JSON-lines trace file")
    p_learn.set_defaults(func=cmd_learn)

    p_cmp = sub.add_parser("compare", help="learner-versus-baselines experiment")
    p_cmp.add_argument("--scale", choices=("desk", "paper"), default="desk")
    p_cmp.add_argument("--seed", type=_seed, default=0)
    p_cmp.add_argument("--k", type=_positive_int, default=20)
    p_cmp.add_argument("--output", required=True)
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend flag defaults from --config FILE or --config=FILE as if
    typed before the flags."""
    i = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, inline, path = argv[i].partition("=")
    if not inline:
        path = argv[i + 1] if i + 1 < len(argv) else ""
    if not path:
        parser.error("--config needs a file path")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object of flag values")
    rest = argv[:i] + argv[i + (1 if inline else 2) :]
    if not rest:
        parser.error("config file cannot supply the subcommand")
    injected: list[str] = []
    for key, value in sorted(data.items()):
        flag = "--" + key.replace("_", "-")
        if flag not in rest:
            injected.extend([flag, str(value)])
    return [rest[0]] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = parser.parse_args(_apply_config_defaults(parser, argv))
        except SystemExit as exc:  # argparse exits on usage errors and --help
            return int(exc.code or 0)
        # values past the float range raise their own error (exit 1),
        # which numpy's float warnings would only repeat
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, solver budgets
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
