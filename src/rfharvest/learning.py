"""Online learning of unknown chain parameters by posterior sampling.

Each hypothesis pairs a current arrival state with four transition
counts (good-to-bad, good-to-good, bad-to-good, bad-to-bad) that
parameterize independent Beta posteriors over p and q. The weight of a
hypothesis is its appearance count: the number of hidden state
histories, consistent with everything observed so far, that produce
exactly those counts. Counts start at [1, 1, 1, 1] (uniform priors)
with both states weighted 1.

The filter is one map from (state, counts) to the exact integer weight.
It conditions on landing states: the map always describes the most
recent slot. The first observed harvest pins the initial state without
counting a transition; every later step first advances each hypothesis
one transition (branching it in two) and, if the slot was harvested,
keeps only the branches that land on the observed state. Sleeping
branches everything and keeps it all, so the hypothesis count at most
doubles per sleeping slot; to stay tractable only the 2K heaviest
hypotheses survive each step.

When a harvest fails, one hypothesis is drawn with probability
proportional to its weight, its Beta-mean parameter estimates are
mapped to the precomputed optimal sleep count, and the node sleeps
that long before probing again.

Like every policy in ``harness``, the learner is a sleep-after-failure
rule: it only says how many slots to sleep after each harvest, and
``_run_episode``, the one episode loop, counts those slots down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import Observation, RewardConfig
from .gilbert_elliott import ArrivalState, GEParams, simulate
from .threshold import LookupTable, ThresholdPolicy, optimal_sleep_time

__all__ = [
    "PosteriorCount",
    "HypothesisMap",
    "ExactPosterior",
    "EmptyPosterior",
    "HistoryTooLong",
    "initial_particles",
    "observe",
    "exact_posterior",
    "SleepTimePlanner",
    "sample_and_plan",
    "PosteriorSamplingLearner",
    "SlotRecord",
    "EpisodeTrace",
    "run_learner",
]

MAX_EXACT_HISTORY = 25


class EmptyPosterior(RuntimeError):
    """No hypothesis survived an update."""


class HistoryTooLong(ValueError):
    """Brute-force enumeration is exponential; refuse long histories."""


class PosteriorCount(NamedTuple):
    """Transition counts (g2b, g2g, b2g, b2b), each at least 1."""

    g2b: int
    g2g: int
    b2g: int
    b2b: int

    @property
    def mean_p(self) -> float:
        return self.g2b / (self.g2b + self.g2g)

    @property
    def mean_q(self) -> float:
        return self.b2g / (self.b2g + self.b2b)


UNIFORM_PRIOR = PosteriorCount(1, 1, 1, 1)


# A hypothesis is keyed (state, g2b, g2g, b2g, b2b) with state 0 for good
# and 1 for bad: a tuple of plain ints hashes in C, where an Enum member
# would hash through a Python-level __hash__ on every dict access.
GOOD, BAD = 0, 1
HypothesisKey = tuple[int, int, int, int, int]


class HypothesisMap(NamedTuple):
    """Exact integer weight of every surviving hypothesis, at most 2K."""

    weights: dict[HypothesisKey, int]
    k: int
    fresh: bool = False


def initial_particles(k: int, prior: PosteriorCount = UNIFORM_PRIOR) -> HypothesisMap:
    """Fresh prior map: both states weighted 1 under the given counts.

    The default [1, 1, 1, 1] makes both transition probabilities
    uniform on (0, 1); informative priors plug in larger counts.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return HypothesisMap({(GOOD, *prior): 1, (BAD, *prior): 1}, k, fresh=True)


def observe(hyp: HypothesisMap, z: Observation) -> HypothesisMap:
    """Incorporate one slot: advance hypotheses, condition on the landing
    state if it was observed, merge duplicates, truncate to 2K.

    Weights are carried without renormalization. Truncation keeps the
    2K heaviest hypotheses; ties break on the key, good before bad and
    then ascending counts, so it is deterministic.

    On a fresh prior an observed state only selects the matching
    hypotheses (no transition has elapsed yet), and a fresh sleep
    leaves the map unchanged; the skipped transition is counted by the
    next update.
    """
    if hyp.fresh:
        if z is Observation.NONE:
            return HypothesisMap(hyp.weights, hyp.k)
        state = {Observation.GOOD: GOOD, Observation.BAD: BAD}.get(z)
        weights = {key: w for key, w in hyp.weights.items() if key[0] == state}
        if not weights:
            raise EmptyPosterior(f"no hypothesis matches initial observation {z}")
        return HypothesisMap(weights, hyp.k)

    # one loop per observation keeps the per-hypothesis work to the
    # branches that survive; this is the learner's innermost loop
    weights: dict[HypothesisKey, int] = {}
    get = weights.get
    items = hyp.weights.items()
    if z is Observation.GOOD:
        for (state, g2b, g2g, b2g, b2b), w in items:
            key = (GOOD, g2b, g2g + 1, b2g, b2b) if state == GOOD else (GOOD, g2b, g2g, b2g + 1, b2b)
            weights[key] = get(key, 0) + w
    elif z is Observation.BAD:
        for (state, g2b, g2g, b2g, b2b), w in items:
            key = (BAD, g2b + 1, g2g, b2g, b2b) if state == GOOD else (BAD, g2b, g2g, b2g, b2b + 1)
            weights[key] = get(key, 0) + w
    elif z is Observation.NONE:
        for (state, g2b, g2g, b2g, b2b), w in items:
            if state == GOOD:
                to_good, to_bad = (GOOD, g2b, g2g + 1, b2g, b2b), (BAD, g2b + 1, g2g, b2g, b2b)
            else:
                to_good, to_bad = (GOOD, g2b, g2g, b2g + 1, b2b), (BAD, g2b, g2g, b2g, b2b + 1)
            weights[to_good] = get(to_good, 0) + w
            weights[to_bad] = get(to_bad, 0) + w
    else:
        raise ValueError(f"unknown observation {z!r}")
    if not weights:
        raise EmptyPosterior("update left no hypotheses")
    if len(weights) > 2 * hyp.k:
        heaviest = sorted([(-w, key) for key, w in weights.items()])[: 2 * hyp.k]
        weights = {key: -w for w, key in heaviest}
    return HypothesisMap(weights, hyp.k)


def _log_beta_norm(count: PosteriorCount) -> float:
    """log of B(g2b, g2g) * B(b2g, b2b), the Beta integral over (p, q)."""
    return (
        math.lgamma(count.g2b)
        + math.lgamma(count.g2g)
        - math.lgamma(count.g2b + count.g2g)
        + math.lgamma(count.b2g)
        + math.lgamma(count.b2b)
        - math.lgamma(count.b2g + count.b2b)
    )


@dataclass(frozen=True)
class ExactPosterior:
    """Brute-force posterior over (state, counts) after a history.

    ``entries`` maps (state, counts) to the integer appearance count;
    ``log_weights`` carries the unnormalized log posterior mass
    log(C) + log Beta-normalizer, and ``log_evidence`` its total.
    """

    entries: dict[tuple[ArrivalState, PosteriorCount], int]
    log_weights: dict[tuple[ArrivalState, PosteriorCount], float]
    log_evidence: float

    def state_marginal(self, state: ArrivalState) -> float:
        logs = [lw for (s, _), lw in self.log_weights.items() if s is state]
        if not logs:
            return 0.0
        m = max(logs)
        return math.exp(m + math.log(sum(math.exp(x - m) for x in logs)) - self.log_evidence)

    def posterior_mean_params(self) -> tuple[float, float]:
        """Posterior means of (p, q), averaging Beta means over hypotheses."""
        p_acc = q_acc = 0.0
        for key, lw in self.log_weights.items():
            w = math.exp(lw - self.log_evidence)
            _, count = key
            p_acc += w * count.mean_p
            q_acc += w * count.mean_q
        return p_acc, q_acc


def exact_posterior(
    z_history: list[Observation], prior: PosteriorCount = UNIFORM_PRIOR
) -> ExactPosterior:
    """Enumerate every state history consistent with the observations.

    Each history pins one state per slot (observed slots are fixed,
    slept slots branch) and contributes weight 1 to the appearance
    count of its final (state, counts) pair on top of the prior counts.
    The enumeration is exponential in the number of slept slots, so
    those are capped; fully observed histories of any length enumerate
    a single path.
    """
    unobserved = sum(1 for z in z_history if z is Observation.NONE)
    if unobserved > MAX_EXACT_HISTORY:
        raise HistoryTooLong(
            f"{unobserved} unobserved slots exceed the enumeration bound {MAX_EXACT_HISTORY}"
        )
    if not z_history:
        raise ValueError("history must contain at least one observation")

    entries: dict[tuple[ArrivalState, PosteriorCount], int] = {}

    def allowed(z: Observation) -> tuple[ArrivalState, ...]:
        if z is Observation.GOOD:
            return (ArrivalState.GOOD,)
        if z is Observation.BAD:
            return (ArrivalState.BAD,)
        return (ArrivalState.GOOD, ArrivalState.BAD)

    def recurse(t: int, state: ArrivalState, count: PosteriorCount) -> None:
        if t == len(z_history):
            key = (state, count)
            entries[key] = entries.get(key, 0) + 1
            return
        for nxt in allowed(z_history[t]):
            if state is ArrivalState.GOOD:
                new = (
                    count._replace(g2g=count.g2g + 1)
                    if nxt is ArrivalState.GOOD
                    else count._replace(g2b=count.g2b + 1)
                )
            else:
                new = (
                    count._replace(b2g=count.b2g + 1)
                    if nxt is ArrivalState.GOOD
                    else count._replace(b2b=count.b2b + 1)
                )
            recurse(t + 1, nxt, new)

    for first in allowed(z_history[0]):
        recurse(1, first, prior)

    log_weights = {
        key: math.log(c) + _log_beta_norm(key[1]) for key, c in entries.items()
    }
    m = max(log_weights.values())
    log_evidence = m + math.log(sum(math.exp(x - m) for x in log_weights.values()))
    return ExactPosterior(entries=entries, log_weights=log_weights, log_evidence=log_evidence)


class SleepTimePlanner:
    """Maps sampled parameter estimates to an optimal sleep count.

    Consults a lookup table when one is supplied (nearest cell); on a
    miss, or without a table, computes the exact optimum and caches it
    per distinct estimate pair.
    """

    def __init__(self, cfg: RewardConfig, table: LookupTable | None = None):
        self.cfg = cfg
        self.table = table
        self._cache: dict[tuple[float, float], ThresholdPolicy] = {}

    def plan(self, p: float, q: float) -> ThresholdPolicy | None:
        """Policy for the estimates, or None when they violate the model."""
        if not (0.0 < p < 1.0 and 0.0 < q < 1.0 and 1.0 - p > q):
            return None
        if self.table is not None:
            policy = self.table.lookup(p, q)
            if policy is not None:
                return policy
        key = (p, q)
        if key not in self._cache:
            self._cache[key], _ = optimal_sleep_time(GEParams(p=p, q=q), self.cfg)
        return self._cache[key]


def sample_and_plan(
    hyp: HypothesisMap, rng: np.random.Generator, planner: SleepTimePlanner
) -> tuple[int, tuple[float, float]]:
    """Draw one hypothesis by weight and plan a sleep for its estimates.

    Hypotheses are drawn from in sorted key order: good before bad,
    then ascending counts.

    Estimates that violate the model constraint, or whose optimum is to
    never harvest, fall back to a single sleeping slot: a learner must
    not stop observing forever on the strength of a possibly wrong
    estimate.
    """
    entries = sorted(hyp.weights.items())
    if not entries:
        raise EmptyPosterior("cannot sample from an empty hypothesis set")
    weights = np.array([float(w) for _, w in entries])
    idx = int(rng.choice(len(entries), p=weights / weights.sum()))
    count = PosteriorCount(*entries[idx][0][1:])
    p_hat, q_hat = count.mean_p, count.mean_q
    policy = planner.plan(p_hat, q_hat)
    if policy is None or policy.never_harvest:
        return 1, (p_hat, q_hat)
    return policy.sleep_slots, (p_hat, q_hat)


class PosteriorSamplingLearner:
    """Keep harvesting after a success; after a failure, sleep for the
    plan of one posterior draw. Learns from every slot.

    Follows the sequential policy protocol of ``harness``. ``reset``
    starts an episode from the prior with the given sampling stream;
    the planner, and its cache, is shared across episodes.
    """

    deterministic = False

    def __init__(self, k: int, planner: SleepTimePlanner):
        self.k = k
        self.planner = planner
        self.rng: np.random.Generator | None = None
        self.hypotheses: HypothesisMap | None = None

    def reset(self, rng: np.random.Generator) -> int:
        self.rng = rng
        self.hypotheses = initial_particles(self.k)
        return 0

    def after_harvest(self, good: bool) -> int:
        if good:
            self.hypotheses = observe(self.hypotheses, Observation.GOOD)
            return 0
        self.hypotheses = observe(self.hypotheses, Observation.BAD)
        sleep, _ = sample_and_plan(self.hypotheses, self.rng, self.planner)
        return sleep

    def after_sleep(self) -> None:
        self.hypotheses = observe(self.hypotheses, Observation.NONE)


def _run_episode(
    policy, rng: np.random.Generator, states: np.ndarray, cfg: RewardConfig, record=None
) -> float:
    """Step a policy through one hidden state path; the discounted reward.

    This is the one episode loop, shared by ``run_learner`` and the
    harness, and the only owner of the sleep timer. ``policy.reset(rng)``
    and ``policy.after_harvest(good)`` return the slots to sleep before
    the next harvest (0 harvests at once, None never again); the loop
    counts them down and calls ``policy.after_sleep()`` on each.
    ``record(t, good, reward, timer)``, when given, is called once slot
    t is taken, with the observed state (None for a sleeping slot), the
    slot's reward and the slots still to sleep.
    """
    total = 0.0
    discount = 1.0
    r1, r0, gamma = cfg.r1, cfg.r0, cfg.gamma
    timer = policy.reset(rng)
    for t in range(states.shape[0]):
        if timer == 0:
            good = bool(states[t])
            reward = r1 if good else -r0
            total += discount * reward
            timer = policy.after_harvest(good)
        else:
            good, reward = None, 0.0
            policy.after_sleep()
            if timer is not None:
                timer -= 1
        if record is not None:
            record(t, good, reward, timer)
        discount *= gamma
    return total


@dataclass(frozen=True)
class SlotRecord:
    t: int
    action: str
    observation: str | None
    timer: int
    reward: float
    hypothesis_count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "action": self.action,
                "observation": self.observation,
                "timer": self.timer,
                "reward": self.reward,
                "hypothesis_count": self.hypothesis_count,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class EpisodeTrace:
    records: tuple[SlotRecord, ...]
    total_discounted_reward: float
    seed: int

    def write_jsonl(self, stream) -> None:
        for record in self.records:
            stream.write(record.to_json())
            stream.write("\n")

    def planned_sleeps(self) -> list[int]:
        """Timer values set at each failed harvest, in order."""
        return [r.timer for r in self.records if r.action == "harvest" and r.observation == "B"]


def run_learner(
    params: GEParams,
    cfg: RewardConfig,
    k: int,
    horizon: int,
    seed: int,
    table: LookupTable | None = None,
) -> EpisodeTrace:
    """Run one learning episode against a hidden simulated chain.

    The hidden path and the learner's sampling draws both derive from
    ``seed``, so traces are fully reproducible. Returns the per-slot
    trace and the discounted reward total.
    """
    path = simulate(params, horizon, seed=seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
    learner = PosteriorSamplingLearner(k=k, planner=SleepTimePlanner(cfg, table))
    records = []

    def record(t: int, good: bool | None, reward: float, timer: int) -> None:
        records.append(
            SlotRecord(
                t=t,
                action="sleep" if good is None else "harvest",
                observation=None if good is None else ("G" if good else "B"),
                timer=timer,
                reward=reward,
                hypothesis_count=len(learner.hypotheses.weights),
            )
        )

    total = _run_episode(learner, rng, path.states, cfg, record)
    return EpisodeTrace(records=tuple(records), total_discounted_reward=total, seed=seed)
