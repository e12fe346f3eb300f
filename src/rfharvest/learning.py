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

The map is kept as two dicts, one per landing state, keyed by the four
counts packed into one int. A transition adds a constant to the packed
key, so each dict carries one offset added to all of its keys: a
harvest whose hypotheses all sit in one state only moves that offset,
and other updates merge the two shifted dicts with int additions.

When a harvest fails, one hypothesis is drawn with probability
proportional to its weight, its Beta-mean parameter estimates are
mapped to the precomputed optimal sleep count, and the node sleeps
that long before probing again. The draw converts the weights to
floats and inverts their cumulative distribution at one uniform,
exactly as ``Generator.choice(n, p=weights / weights.sum())`` would;
once the weights pass about 2^1024 their float sum overflows and the
draw raises ValueError.

Like every policy in ``harness``, the learner is a sleep-after-failure
rule: it only says how many slots to sleep after each harvest, and
``_run_episode``, the one episode loop, counts those slots down.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .beliefs import Observation, RewardConfig
from .gilbert_elliott import GEParams, is_valid_chain, simulate
from .threshold import LookupTable, ThresholdPolicy, optimal_sleep_time

__all__ = [
    "PosteriorCount",
    "HypothesisMap",
    "EmptyPosterior",
    "initial_particles",
    "observe",
    "SleepTimePlanner",
    "sample_and_plan",
    "PosteriorSamplingLearner",
    "SlotRecord",
    "EpisodeTrace",
    "run_learner",
]

class EmptyPosterior(RuntimeError):
    """No hypothesis survived an update."""


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
# and 1 for bad. Inside the map the four counts are packed into one int,
# ((g2b*S + g2g)*S + b2g)*S + b2b: its order is the tuple order, and a
# transition adds one constant to it. S bounds every count; reaching 2^64
# would take 2^64 slots, more than any run can simulate.
GOOD, BAD = 0, 1
HypothesisKey = tuple[int, int, int, int, int]
S = 2**64
# the key step of each transition, by (from, to) state
_G2G, _G2B, _B2G, _B2B = S**2, S**3, S, 1


def _pack(g2b: int, g2g: int, b2g: int, b2b: int) -> int:
    return ((g2b * S + g2g) * S + b2g) * S + b2b


def _unpack(packed: int) -> tuple[int, int, int, int]:
    rest, b2b = divmod(packed, S)
    rest, b2g = divmod(rest, S)
    g2b, g2g = divmod(rest, S)
    return g2b, g2g, b2g, b2b


class HypothesisMap:
    """Exact integer weight of every surviving hypothesis, at most 2K.

    Stored as two dicts, one per landing state, from packed counts to
    weight. Each dict carries an offset that is added to every stored
    key, so a transition that moves all of a state's hypotheses alike
    only moves the offset. Maps are never mutated: an update may share
    a dict with the map it came from.

    ``weights`` decodes the map to ``(state, g2b, g2g, b2g, b2b) ->
    weight``; ``len`` counts hypotheses without decoding.
    """

    __slots__ = ("_good", "_good_offset", "_bad", "_bad_offset", "k", "fresh")

    def __init__(
        self,
        good: dict[int, int],
        good_offset: int,
        bad: dict[int, int],
        bad_offset: int,
        k: int,
        fresh: bool = False,
    ):
        self._good = good
        self._good_offset = good_offset
        self._bad = bad
        self._bad_offset = bad_offset
        self.k = k
        self.fresh = fresh

    @classmethod
    def from_weights(cls, weights: dict[HypothesisKey, int], k: int, fresh: bool = False) -> HypothesisMap:
        """Map from absolute ``(state, g2b, g2g, b2g, b2b) -> weight`` entries.

        Refuses a state other than GOOD or BAD and a count outside
        [0, S), which the packed key cannot hold.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        by_state = ({}, {})
        for (state, *counts), w in weights.items():
            if state not in (GOOD, BAD):
                raise ValueError(f"hypothesis state must be GOOD (0) or BAD (1), got {state!r}")
            if not all(0 <= c < S for c in counts):
                raise ValueError(f"hypothesis counts {tuple(counts)} must lie in [0, S) with S = {S}")
            by_state[state][_pack(*counts)] = w
        return cls(by_state[GOOD], 0, by_state[BAD], 0, k, fresh)

    @property
    def weights(self) -> dict[HypothesisKey, int]:
        view = {}
        by_state = (GOOD, self._good, self._good_offset), (BAD, self._bad, self._bad_offset)
        for state, entries, offset in by_state:
            for key, w in entries.items():
                view[(state, *_unpack(key + offset))] = w
        return view

    def __len__(self) -> int:
        return len(self._good) + len(self._bad)


def initial_particles(k: int) -> HypothesisMap:
    """Fresh prior map: both states weighted 1 under the uniform prior.

    The counts [1, 1, 1, 1] make both transition probabilities uniform
    on (0, 1).
    """
    return HypothesisMap.from_weights({(GOOD, *UNIFORM_PRIOR): 1, (BAD, *UNIFORM_PRIOR): 1}, k, fresh=True)


def _merge(a: dict[int, int], a_offset: int, b: dict[int, int], b_offset: int) -> tuple[dict[int, int], int]:
    """The union of two offset dicts, summing the weights of equal keys.

    Copies the larger dict and adds the smaller one into the copy, so
    neither input changes; an empty side returns the other as it is.
    """
    if len(a) < len(b):
        a, a_offset, b, b_offset = b, b_offset, a, a_offset
    if not b:
        return a, a_offset
    merged = a.copy()
    get = merged.get
    shift = b_offset - a_offset
    for key, w in b.items():
        key += shift
        merged[key] = get(key, 0) + w
    return merged, a_offset


def _truncate(good: dict[int, int], bad: dict[int, int], keep: int) -> tuple[dict[int, int], dict[int, int]]:
    """The ``keep`` heaviest of more than ``keep`` hypotheses; ties go good
    before bad, then to ascending counts.

    Only the weights are sorted. When the ``keep``-th weight is heavier
    than the next, every hypothesis at least that heavy stays; otherwise
    those tied with it fill the places left in that tie order, and only
    the ties of the state where the places run out are sorted. Keys of
    one state share an offset, so their stored order is their absolute
    order and the offsets need not be added.
    """
    weights = sorted([*good.values(), *bad.values()], reverse=True)
    cut = weights[keep - 1]
    if weights[keep] != cut:
        return {key: w for key, w in good.items() if w >= cut}, {key: w for key, w in bad.items() if w >= cut}
    room = keep - weights.index(cut)
    kept = []
    for entries in (good, bad):
        ties = [key for key, w in entries.items() if w == cut]
        if len(ties) > room:
            ties = sorted(ties)[:room]
        kept.append({key: w for key, w in entries.items() if w > cut} | dict.fromkeys(ties, cut))
        room -= len(ties)
    return kept[0], kept[1]


def observe(hyp: HypothesisMap, z: Observation) -> HypothesisMap:
    """Incorporate one slot: advance hypotheses, condition on the landing
    state if it was observed, merge duplicates, truncate to 2K.

    A transition adds one step to the packed key: S^2 for good-to-good,
    S^3 for good-to-bad, S for bad-to-good and 1 for bad-to-bad. A
    harvest therefore moves each state's offset by its step into the
    landing state; it is O(1) when all hypotheses sit in one state, and
    otherwise merges the two shifted dicts. A sleep branches both
    states into both, two merges.

    Weights are carried without renormalization. Truncation keeps the
    2K heaviest hypotheses; ties break on the key, good before bad and
    then ascending counts, so it is deterministic.

    On a fresh prior an observed state only selects the matching
    hypotheses (no transition has elapsed yet), and a fresh sleep
    leaves the map unchanged; the skipped transition is counted by the
    next update. An unknown observation raises ValueError.
    """
    good, good_offset, bad, bad_offset = hyp._good, hyp._good_offset, hyp._bad, hyp._bad_offset
    if hyp.fresh:
        if z is Observation.NONE:
            return HypothesisMap(good, good_offset, bad, bad_offset, hyp.k)
        if z is Observation.GOOD:
            bad = {}
        elif z is Observation.BAD:
            good = {}
        else:
            raise ValueError(f"unknown observation {z!r}")
        if not good and not bad:
            raise EmptyPosterior(f"no hypothesis matches initial observation {z}")
        return HypothesisMap(good, good_offset, bad, bad_offset, hyp.k)

    if z is Observation.GOOD:
        good, good_offset = _merge(good, good_offset + _G2G, bad, bad_offset + _B2G)
        bad, bad_offset = {}, 0
    elif z is Observation.BAD:
        bad, bad_offset = _merge(good, good_offset + _G2B, bad, bad_offset + _B2B)
        good, good_offset = {}, 0
    elif z is Observation.NONE:
        (good, good_offset), (bad, bad_offset) = (
            _merge(good, good_offset + _G2G, bad, bad_offset + _B2G),
            _merge(good, good_offset + _G2B, bad, bad_offset + _B2B),
        )
    else:
        raise ValueError(f"unknown observation {z!r}")
    if not good and not bad:
        raise EmptyPosterior("update left no hypotheses")
    if len(good) + len(bad) > 2 * hyp.k:
        good, bad = _truncate(good, bad, 2 * hyp.k)
    return HypothesisMap(good, good_offset, bad, bad_offset, hyp.k)


class SleepTimePlanner:
    """Maps sampled parameter estimates to an optimal sleep count.

    Consults a lookup table when one is supplied (nearest cell); on a
    miss, or without a table, computes the exact optimum. (Sampled
    estimates almost never repeat exactly, so there is nothing to cache.)
    A table built for another (r1, r0, gamma) is refused with ValueError.
    """

    def __init__(self, cfg: RewardConfig, table: LookupTable | None = None):
        if table is not None:
            built, run = (table.r1, table.r0, table.gamma), (cfg.r1, cfg.r0, cfg.gamma)
            if built != run:
                raise ValueError(f"table was built for (r1, r0, gamma) = {built}, but this run uses {run}")
        self.cfg = cfg
        self.table = table

    def plan(self, p: float, q: float) -> ThresholdPolicy | None:
        """Policy for the estimates, or None when they violate the model."""
        if not is_valid_chain(p, q):
            return None
        if self.table is not None:
            policy = self.table.lookup(p, q)
            if policy is not None:
                return policy
        return optimal_sleep_time(GEParams(p=p, q=q), self.cfg)[0]


def _draw(weights: list[int], rng: np.random.Generator) -> int:
    """Index i drawn with probability ``weights[i] / sum(weights)``.

    Inverts the cumulative distribution of the float weights at one
    uniform: the index, and the generator state after it, are those of
    ``rng.choice(len(weights), p=w / w.sum())`` on ``w =
    np.array([float(x) for x in weights])``. When that float sum
    overflows, raises the ValueError choice would, saying why.
    """
    floats = list(map(float, weights))
    total = float(np.array(floats).sum())
    if not math.isfinite(total):
        raise ValueError(
            f"Probabilities do not sum to 1: the float sum of {len(weights)} hypothesis weights overflows "
            f"(the largest weight has {max(weights).bit_length()} bits; floats end at 2**1024). "
            "Exact weights this large are a known limit, see ROADMAP.md item 2"
        )
    cdf = list(accumulate([w / total for w in floats]))
    last = cdf[-1]
    return bisect_right(cdf, rng.random(), key=lambda c: c / last)


def sample_and_plan(
    hyp: HypothesisMap, rng: np.random.Generator, planner: SleepTimePlanner
) -> tuple[int, tuple[float, float]]:
    """Draw one hypothesis by weight and plan a sleep for its estimates.

    Hypotheses are drawn from in sorted key order, good before bad and
    then ascending counts, by ``_draw``: one uniform from ``rng``, the
    same index and generator state as ``rng.choice`` with the float
    weights normalized by their sum. Weights past about 2^1024
    overflow that sum and raise ValueError.

    Estimates that violate the model constraint, or whose optimum is to
    never harvest, fall back to a single sleeping slot: a learner must
    not stop observing forever on the strength of a possibly wrong
    estimate.
    """
    good, bad = sorted(hyp._good), sorted(hyp._bad)
    if not good and not bad:
        raise EmptyPosterior("cannot sample from an empty hypothesis set")
    idx = _draw([hyp._good[key] for key in good] + [hyp._bad[key] for key in bad], rng)
    if idx < len(good):
        packed = good[idx] + hyp._good_offset
    else:
        packed = bad[idx - len(good)] + hyp._bad_offset
    count = PosteriorCount(*_unpack(packed))
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
    the planner is shared across episodes.
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
    for t, state in enumerate(states.tolist()):
        if timer == 0:
            good = bool(state)
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

    def write_jsonl(self, stream) -> None:
        for record in self.records:
            stream.write(record.to_json())
            stream.write("\n")


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
    states = simulate(params, horizon, seed=seed)
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
                hypothesis_count=len(learner.hypotheses),
            )
        )

    total = _run_episode(learner, rng, states, cfg, record)
    return EpisodeTrace(records=tuple(records), total_discounted_reward=total)
