"""Monte-Carlo policy evaluation with paired sample paths.

Every policy in an experiment sees the same arrival sample path within
a (path, run) cell, so cross-policy comparisons are not confounded by
path noise. All randomness derives from the experiment's base seed
through named Philox streams, making result files bit-reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .beliefs import RewardConfig
from .gilbert_elliott import GEParams, from_burst_parameterization, simulate
from .learning import UNIFORM_PRIOR, PosteriorCount, PosteriorSamplingLearner, SleepTimePlanner, _run_episodes
from .threshold import STANDARD_PI_G, STANDARD_T_B, ThresholdPolicy, build_lookup_table, grid_axis

__all__ = [
    "PolicyDef",
    "ExperimentSpec",
    "ExperimentResult",
    "evaluate",
    "learning_comparison",
    "mc_policy_value",
    "write_result_csv",
    "write_result_json",
]

RESULT_CSV_HEADER = (
    "policy",
    "mean_discounted_reward",
    "std_error",
    "paths",
    "runs_per_path",
    "horizon",
)


def _describe_option(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return type(value).__name__


@dataclass(frozen=True)
class PolicyDef:
    """Declarative policy description; options mirror the constructors."""

    name: str
    options: dict = field(default_factory=dict)

    def key(self) -> str:
        shown = {k: _describe_option(v) for k, v in self.options.items() if k != "table"}
        if not shown:
            return self.name
        opts = ",".join(f"{k}={shown[k]}" for k in sorted(shown))
        return f"{self.name}({opts})"


@dataclass(frozen=True)
class ExperimentSpec:
    params: GEParams
    cfg: RewardConfig
    horizon: int
    paths: int
    runs_per_path: int
    base_seed: int
    policies: tuple[PolicyDef, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.paths < 1 or self.runs_per_path < 1:
            raise ValueError("horizon, paths and runs_per_path must be positive")
        if not self.policies:
            raise ValueError("at least one policy is required")
        # truncation must be negligible relative to the discounted total
        if self.cfg.gamma > 0.0 and self.cfg.gamma**self.horizon >= 0.01:
            raise ValueError(
                f"horizon {self.horizon} leaves more than 1% of the discounted "
                f"mass beyond the truncation at gamma={self.cfg.gamma}"
            )

    def echo(self) -> dict:
        return {
            "params": {"p": self.params.p, "q": self.params.q},
            "reward": {"r1": self.cfg.r1, "r0": self.cfg.r0, "gamma": self.cfg.gamma},
            "horizon": self.horizon,
            "paths": self.paths,
            "runs_per_path": self.runs_per_path,
            "base_seed": self.base_seed,
            "policies": [
                {
                    "name": d.name,
                    "options": {k: _describe_option(v) for k, v in d.options.items()},
                }
                for d in self.policies
            ],
        }


# the policy protocol: every policy is a sleep-after-failure rule, and
# learning._run_episodes steps the runs of one path through it, counting
# the sleeps down; runs that have seen the same history form a group
# with one state. start(rngs) returns the group's first state and the
# slots to sleep before the first harvest (0, or None for never);
# after_harvest(state, good) returns the next state and the slots to
# sleep next (0 after a success, N after a failure, None to stop
# harvesting for good), or a function from a run's rng to that run's
# count, which splits the group by count; after_sleep(state) is called
# on every slept slot and returns the next state. A state is never
# mutated, so one policy serves every group. The group states:
# threshold.ThresholdPolicy, the known-parameter rule, and
# RandomSamplingPolicy keep None; the Bayes learner its hypothesis map;
# ImpoverishedPosteriorPolicy its counts and the outcome of the slot
# before, None after a sleep.
# ``deterministic`` marks policies whose episodes do not depend on the
# rng; they run once per path. The Bayes learner and the two baselines
# below take N from a shared learning.SleepTimePlanner: a count, or
# None, which each reads its own way.


class ImpoverishedPosteriorPolicy:
    """Baseline that learns only from fully observed transitions.

    Transition counts are updated solely when two consecutive slots
    were both harvested; sleeping slots teach it nothing. Planning is
    certainty-equivalent on the single count vector it maintains, and
    it trusts that estimate completely: where the planner has no count
    for it (outside the positively correlated region, or never harvest)
    the policy stops harvesting for good. (The sampling learner never
    falls into this trap, which is the point of the comparison; it
    keeps a protective one-slot fallback instead.)

    The group state is ``(counts, prev_good)``: the ``PosteriorCount``
    of the transitions seen, from the uniform prior, and the outcome of
    the previous slot, None when it slept.
    """

    deterministic = True

    def __init__(self, planner: SleepTimePlanner):
        self.planner = planner

    def start(self, rngs) -> tuple[tuple[PosteriorCount, None], int]:
        return (UNIFORM_PRIOR, None), 0

    def after_harvest(self, state, good: bool):
        counts, prev_good = state
        if prev_good is not None:
            g2b, g2g, b2g, b2b = counts
            if prev_good:
                counts = PosteriorCount(g2b, g2g + 1, b2g, b2b) if good else PosteriorCount(g2b + 1, g2g, b2g, b2b)
            else:
                counts = PosteriorCount(g2b, g2g, b2g + 1, b2b) if good else PosteriorCount(g2b, g2g, b2g, b2b + 1)
        if good:
            return (counts, True), 0
        return (counts, False), self.planner.plan(counts.mean_p, counts.mean_q)

    def after_sleep(self, state):
        return state[0], None


class RandomSamplingPolicy:
    """Baseline that replans from uniformly random parameter guesses.

    Follows the learner's outer loop but replaces the posterior draw
    with an independent uniform draw of (p, q) at every failure, and
    shares the learner's one-slot fallback where the planner has no
    count. The posterior itself is irrelevant to its decisions and is not kept,
    so its group state is None.
    """

    deterministic = False

    def __init__(self, planner: SleepTimePlanner):
        self.planner = planner

    def start(self, rngs) -> tuple[None, int]:
        return None, 0

    def after_harvest(self, state, good: bool):
        return None, 0 if good else self._guess

    def _guess(self, rng) -> int:
        p = float(rng.random())
        q = float(rng.random())
        n = self.planner.plan(p, q)
        return 1 if n is None else n

    def after_sleep(self, state) -> None:
        pass


def _make_policy(defn: PolicyDef, cfg: RewardConfig):
    opts = dict(defn.options)
    table = opts.pop("table", None)
    if defn.name == "always_harvest":
        return ThresholdPolicy(0, **opts)
    if defn.name == "fixed_threshold":
        if "sleep_slots" not in opts:
            raise ValueError("fixed_threshold needs a sleep_slots option: a count, or None to never harvest")
        return ThresholdPolicy(**opts)
    if defn.name == "bayes_learner":
        return PosteriorSamplingLearner(planner=SleepTimePlanner(cfg, table), **opts)
    if defn.name == "impoverished_posterior":
        return ImpoverishedPosteriorPolicy(planner=SleepTimePlanner(cfg, table), **opts)
    if defn.name == "random_sampling":
        return RandomSamplingPolicy(planner=SleepTimePlanner(cfg, table), **opts)
    raise ValueError(f"unknown policy {defn.name!r}")


def _path_seed(base_seed: int, path_idx: int) -> int:
    return int(np.random.SeedSequence([base_seed, 7, path_idx]).generate_state(1, np.uint64)[0])


def _episode_rng(base_seed: int, path_idx: int, run_idx: int, policy_idx: int):
    seq = np.random.SeedSequence([base_seed, 11, path_idx, run_idx, policy_idx])
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ExperimentResult:
    spec_echo: dict
    policy_keys: tuple[str, ...]
    means: dict
    std_errors: dict
    path_means: dict

    def paired_gap(self, a: str, b: str) -> tuple[float, float]:
        """Mean and standard error of the per-path difference a - b."""
        diffs = np.asarray(self.path_means[a]) - np.asarray(self.path_means[b])
        se = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else float("nan")
        return float(diffs.mean()), se

    def to_json_dict(self) -> dict:
        return {
            "schema": "experiment-result/1",
            "spec": self.spec_echo,
            "policies": [
                {
                    "key": key,
                    "mean_discounted_reward": self.means[key],
                    "std_error": self.std_errors[key],
                    "path_means": list(self.path_means[key]),
                }
                for key in self.policy_keys
            ],
        }


def evaluate(spec: ExperimentSpec) -> ExperimentResult:
    """Simulate paths x runs episodes per policy and aggregate.

    Deterministic policies are run once per path since every run would
    repeat the same episode. The runs of one (path, policy) cell are
    stepped together by ``learning._run_episodes``, which shares the
    work of runs that have seen the same history; each run still draws
    from its own stream, and a path's mean adds the run totals in run
    order. If a run fails, the exception is that of the first failing
    run in (path, policy, run) order. Standard errors are computed
    across path-level means.
    """
    policies = [(_make_policy(d, spec.cfg), d.key()) for d in spec.policies]
    keys = tuple(key for _, key in policies)
    if len(set(keys)) != len(keys):
        raise ValueError("policy keys must be unique within an experiment")
    path_means = {key: np.empty(spec.paths) for key in keys}
    for path_idx in range(spec.paths):
        states = simulate(spec.params, spec.horizon, seed=_path_seed(spec.base_seed, path_idx))
        for policy_idx, (policy, key) in enumerate(policies):
            runs = 1 if policy.deterministic else spec.runs_per_path
            rngs = [_episode_rng(spec.base_seed, path_idx, run_idx, policy_idx) for run_idx in range(runs)]
            acc = 0.0
            for total in _run_episodes(policy, rngs, states, spec.cfg):
                acc += total
            path_means[key][path_idx] = acc / runs
    means = {key: float(path_means[key].mean()) for key in keys}
    std_errors = {
        key: float(path_means[key].std(ddof=1) / np.sqrt(spec.paths)) if spec.paths > 1 else float("nan")
        for key in keys
    }
    return ExperimentResult(
        spec_echo=spec.echo(),
        policy_keys=keys,
        means=means,
        std_errors=std_errors,
        path_means={key: path_means[key].copy() for key in keys},
    )


def learning_comparison(scale: str = "desk", base_seed: int = 0, k: int = 20) -> ExperimentResult:
    """Learner-versus-baselines comparison on a bursty reference chain.

    The chain has stationary good probability 0.6 and mean bad-burst
    length 2.5 with symmetric rewards r1 = r0 = 10 at gamma = 0.99.
    Desk scale runs 30 paths x 20 runs x 500 slots; paper scale runs
    300 x 100 x 500. Policies that plan from parameter estimates share
    one sleep-count lookup table over the standard grid, the table that
    ``rfharvest table --r1 10 --r0 10 --gamma 0.99`` writes.
    """
    if scale == "desk":
        paths, runs = 30, 20
    elif scale == "paper":
        paths, runs = 300, 100
    else:
        raise ValueError(f"scale must be 'desk' or 'paper', got {scale!r}")
    params = from_burst_parameterization(pi_g=0.6, t_b=2.5)
    cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
    table = build_lookup_table(grid_axis(*STANDARD_PI_G), grid_axis(*STANDARD_T_B), cfg)
    opts = {"table": table}
    spec = ExperimentSpec(
        params=params,
        cfg=cfg,
        horizon=500,
        paths=paths,
        runs_per_path=runs,
        base_seed=base_seed,
        policies=(
            PolicyDef("bayes_learner", {"k": k, **opts}),
            PolicyDef("impoverished_posterior", dict(opts)),
            PolicyDef("random_sampling", dict(opts)),
            PolicyDef("always_harvest"),
        ),
    )
    return evaluate(spec)


# episodes that mc_policy_value steps together: enough to amortize the
# numpy calls, few enough that the working set stays in cache and does
# not grow with the episode count
_MC_BLOCK = 4096


def mc_policy_value(
    params: GEParams,
    cfg: RewardConfig,
    sleep_slots: int,
    episodes: int,
    horizon: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo value of the sleep-n policy, one renewal cycle at a time.

    Episodes start in harvesting mode with the hidden state drawn good
    with probability 1 - p, the post-success belief. The policy sees the
    chain only when it harvests, so each loop step advances every live
    episode by a whole cycle: a run of successes, ended by a failure
    with probability p per harvest, then a streak of failures n + 1
    slots apart, ended by the first wake-up that finds the good state.
    The wake-up state is drawn from the (n + 1)-step transition matrix,
    not from the package's closed form, so the value stays a check of
    it. Both reward sums are geometric series cut at the horizon.
    Returns (mean, standard error of the mean); the standard error is
    NaN for one episode.
    """
    if sleep_slots < 0:
        raise ValueError(f"sleep_slots must be nonnegative, got {sleep_slots}")
    if episodes < 1 or horizon < 1:
        raise ValueError(f"episodes and horizon must be positive, got {episodes} and {horizon}")
    rng = np.random.Generator(np.random.Philox(seed))
    p, q = params.p, params.q
    # a sleep of horizon slots or more never wakes inside the horizon, so
    # longer sleeps need not be told apart
    period = min(sleep_slots, horizon) + 1
    # object entries keep this 2x2 power in Python floats: a float64
    # matmul would load the BLAS library, whose buffers add ~0.4 MB of RSS
    step = np.array([[1.0 - p, p], [q, 1.0 - q]], dtype=object)
    wake_good = float(np.linalg.matrix_power(step, period)[1, 0])
    d = 1.0 - cfg.gamma
    if d < 1.0:
        log_g = math.log1p(-d)

        def discounted(first, count, spacing):
            # sum of gamma^(first + j spacing) over j < count, with each
            # 1 - gamma^k taken as -expm1(k log1p(-d))
            shrink = d if spacing == 1 else -math.expm1(spacing * log_g)
            return np.exp(first * log_g) * -np.expm1(count * (spacing * log_g)) / shrink

    else:
        # gamma 0 or below 1.1e-16: only the first slot counts
        def discounted(first, count, spacing):
            return ((first == 0) & (count > 0)).astype(float)

    totals = np.zeros(episodes)
    for lo in range(0, episodes, _MC_BLOCK):
        block = totals[lo : lo + _MC_BLOCK]  # a view: the cycles add into totals
        live = np.arange(block.size)
        start = np.zeros(block.size, dtype=np.int64)
        # runs count successes: the first run may be empty, later ones
        # begin with the wake-up's success. Clamping each draw to the
        # slots left keeps the slot sums within int64.
        runs = rng.geometric(p, block.size) - 1
        while True:
            runs = np.minimum(runs, horizon - start)
            block[live] += cfg.r1 * discounted(start, runs, 1)
            fail = start + runs
            inside = fail < horizon
            live, fail = live[inside], fail[inside]
            if live.size == 0:
                break
            fits = (horizon - 1 - fail) // period + 1  # failure slots left
            streak = np.minimum(rng.geometric(wake_good, live.size), fits)
            block[live] -= cfg.r0 * discounted(fail, streak, period)
            woke = streak < fits
            live = live[woke]
            start = fail[woke] + streak[woke] * period
            runs = rng.geometric(p, live.size)
    mean = float(totals.mean())
    se = float(totals.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else float("nan")
    return mean, se


def write_result_csv(result: ExperimentResult, stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RESULT_CSV_HEADER)
    spec = result.spec_echo
    for key in result.policy_keys:
        writer.writerow(
            [
                key,
                repr(result.means[key]),
                repr(result.std_errors[key]),
                spec["paths"],
                spec["runs_per_path"],
                spec["horizon"],
            ]
        )


def write_result_json(result: ExperimentResult, stream: io.TextIOBase) -> None:
    json.dump(result.to_json_dict(), stream, indent=1, sort_keys=True)
    stream.write("\n")
