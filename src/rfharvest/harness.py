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
from dataclasses import dataclass, field

import numpy as np

from .beliefs import RewardConfig
from .gilbert_elliott import GEParams, from_burst_parameterization, simulate
from .learning import PosteriorSamplingLearner, SleepTimePlanner, _run_episode
from .threshold import LookupTable, ThresholdPolicy, build_lookup_table, optimal_sleep_time

__all__ = [
    "PolicyDef",
    "ExperimentSpec",
    "ExperimentResult",
    "evaluate",
    "learning_comparison",
    "mc_policy_value",
    "write_result_csv",
    "write_result_json",
    "load_result_json",
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


# sequential policy protocol: every policy is a sleep-after-failure rule.
# reset(rng) returns the slots to sleep before the first harvest (0, or
# None for never); after_harvest(good) returns the slots to sleep next (0
# after a success, N after a failure, None to stop harvesting for good);
# after_sleep() is called on every slept slot; ``deterministic`` marks
# policies whose episodes do not depend on the rng.
# learning._run_episode steps a policy through a path and counts the
# sleeps down; learning.PosteriorSamplingLearner is the Bayes learner.


class FixedThresholdPolicy:
    """Known-parameter policy: sleep a fixed count after each failure."""

    deterministic = True

    def __init__(self, policy: ThresholdPolicy):
        self.policy = policy

    def reset(self, rng) -> int | None:
        return None if self.policy.never_harvest else 0

    def after_harvest(self, good: bool) -> int:
        return 0 if good else self.policy.sleep_slots

    def after_sleep(self) -> None:
        pass


class ImpoverishedPosteriorPolicy:
    """Baseline that learns only from fully observed transitions.

    Transition counts are updated solely when two consecutive slots
    were both harvested; sleeping slots teach it nothing. Planning is
    certainty-equivalent on the single count vector it maintains, and
    it trusts that estimate completely: when the estimate leaves the
    positively correlated region, or the plan for it is to never
    harvest, the policy stops harvesting for good. (The sampling
    learner never falls into this trap, which is the point of the
    comparison; it keeps a protective one-slot fallback instead.)
    """

    deterministic = True

    def __init__(self, cfg: RewardConfig, table: LookupTable | None = None):
        self.planner = SleepTimePlanner(cfg, table)
        self.counts = [1, 1, 1, 1]  # g2b, g2g, b2g, b2b
        self._prev_good: bool | None = None

    def reset(self, rng) -> int:
        self.counts = [1, 1, 1, 1]
        self._prev_good = None
        return 0

    def after_harvest(self, good: bool) -> int | None:
        if self._prev_good is not None:
            if self._prev_good and good:
                self.counts[1] += 1
            elif self._prev_good and not good:
                self.counts[0] += 1
            elif not self._prev_good and good:
                self.counts[2] += 1
            else:
                self.counts[3] += 1
        self._prev_good = good
        if good:
            return 0
        g2b, g2g, b2g, b2b = self.counts
        policy = self.planner.plan(g2b / (g2b + g2g), b2g / (b2g + b2b))
        return None if policy is None else policy.sleep_slots

    def after_sleep(self) -> None:
        self._prev_good = None


class RandomSamplingPolicy:
    """Baseline that replans from uniformly random parameter guesses.

    Follows the learner's outer loop but replaces the posterior draw
    with an independent uniform draw of (p, q) at every failure. The
    posterior itself is irrelevant to its decisions and is not kept.
    """

    deterministic = False

    def __init__(self, cfg: RewardConfig, table: LookupTable | None = None):
        self.planner = SleepTimePlanner(cfg, table)
        self._rng = None

    def reset(self, rng) -> int:
        self._rng = rng
        return 0

    def after_harvest(self, good: bool) -> int:
        if good:
            return 0
        p = float(self._rng.random())
        q = float(self._rng.random())
        policy = self.planner.plan(p, q)
        return 1 if policy is None or policy.never_harvest else policy.sleep_slots

    def after_sleep(self) -> None:
        pass


def _make_policy(defn: PolicyDef, params: GEParams, cfg: RewardConfig):
    opts = dict(defn.options)
    table = opts.pop("table", None)
    if defn.name == "always_harvest":
        return FixedThresholdPolicy(policy=ThresholdPolicy.sleep(0), **opts)
    if defn.name == "fixed_threshold":
        if "sleep_slots" in opts:
            n = opts.pop("sleep_slots")
            policy = ThresholdPolicy.never() if n is None else ThresholdPolicy.sleep(n)
        else:
            policy, _ = optimal_sleep_time(params, cfg)
        return FixedThresholdPolicy(policy=policy, **opts)
    if defn.name == "bayes_learner":
        return PosteriorSamplingLearner(planner=SleepTimePlanner(cfg, table), **opts)
    if defn.name == "impoverished_posterior":
        return ImpoverishedPosteriorPolicy(cfg=cfg, table=table, **opts)
    if defn.name == "random_sampling":
        return RandomSamplingPolicy(cfg=cfg, table=table, **opts)
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
    repeat the same episode. Standard errors are computed across
    path-level means.
    """
    policies = [(_make_policy(d, spec.params, spec.cfg), d.key()) for d in spec.policies]
    keys = tuple(key for _, key in policies)
    if len(set(keys)) != len(keys):
        raise ValueError("policy keys must be unique within an experiment")
    path_means = {key: np.empty(spec.paths) for key in keys}
    for path_idx in range(spec.paths):
        path = simulate(spec.params, spec.horizon, seed=_path_seed(spec.base_seed, path_idx))
        for policy_idx, (policy, key) in enumerate(policies):
            runs = 1 if policy.deterministic else spec.runs_per_path
            acc = 0.0
            for run_idx in range(runs):
                rng = _episode_rng(spec.base_seed, path_idx, run_idx, policy_idx)
                acc += _run_episode(policy, rng, path.states, spec.cfg)
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


def learning_comparison(
    scale: str = "desk",
    base_seed: int = 0,
    k: int = 20,
    table: LookupTable | None = None,
) -> ExperimentResult:
    """Learner-versus-baselines comparison on a bursty reference chain.

    The chain has stationary good probability 0.6 and mean bad-burst
    length 2.5 with symmetric rewards r1 = r0 = 10 at gamma = 0.99.
    Desk scale runs 30 paths x 20 runs x 500 slots; paper scale runs
    300 x 100 x 500. Policies that plan from parameter estimates share
    a precomputed sleep-count lookup table, built here over the
    standard grid when none is supplied.
    """
    if scale == "desk":
        paths, runs = 30, 20
    elif scale == "paper":
        paths, runs = 300, 100
    else:
        raise ValueError(f"scale must be 'desk' or 'paper', got {scale!r}")
    params = from_burst_parameterization(pi_g=0.6, t_b=2.5)
    cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
    if table is None:
        table = build_lookup_table(
            pi_g_axis=[0.05 + 0.9 * i / 19 for i in range(20)],
            t_b_axis=[1.1 + 18.9 * i / 19 for i in range(20)],
            cfg=cfg,
        )
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


def mc_policy_value(
    params: GEParams,
    cfg: RewardConfig,
    sleep_slots: int,
    episodes: int,
    horizon: int,
    seed: int,
    initial_belief: float | None = None,
) -> tuple[float, float]:
    """Monte-Carlo value of the sleep-n policy, vectorized over episodes.

    Episodes start in harvesting mode with the hidden state drawn good
    with probability ``initial_belief`` (default 1 - p, the
    post-success belief). Returns (mean, standard error of the mean).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    b0 = 1.0 - params.p if initial_belief is None else initial_belief
    good = rng.random(episodes) < b0
    timer = np.zeros(episodes, dtype=np.int64)
    totals = np.zeros(episodes)
    discount = 1.0
    stay_good = 1.0 - params.p
    leave_bad = params.q
    for _ in range(horizon):
        harvesting = timer == 0
        totals += discount * np.where(harvesting, np.where(good, cfg.r1, -cfg.r0), 0.0)
        failed = harvesting & ~good
        timer = np.where(failed, sleep_slots, np.where(harvesting, 0, timer - 1))
        good = rng.random(episodes) < np.where(good, stay_good, leave_bad)
        discount *= cfg.gamma
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


def load_result_json(stream: io.TextIOBase) -> dict:
    data = json.load(stream)
    if data.get("schema") != "experiment-result/1":
        raise ValueError("not an experiment result document")
    return data
