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
a sleep from one state hands the same (cut) dict to both landing
states under two offsets, and other updates merge the two shifted
dicts with int additions.

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
``_run_episodes``, the one episode loop, counts those slots down. The
filter depends only on the history of observations, so the loop steps
the runs of one path together and runs that have seen the same history
share one map: one update per slot, and one prepared draw from which
each run takes its own uniform.

``run_learner`` streams its trace, one JSON line per slot, to the
caller's stream 1024 lines at a time while the episode runs; no slot
is kept once its line is written, so only the integer weights grow
with the horizon.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import astuple
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .beliefs import Observation, RewardConfig
from .gilbert_elliott import GEParams, is_valid_chain, simulate
from .threshold import LookupTable, optimal_sleep_time

__all__ = [
    "PosteriorCount",
    "HypothesisMap",
    "EmptyPosterior",
    "initial_particles",
    "observe",
    "SleepTimePlanner",
    "sample_and_plan",
    "PosteriorSamplingLearner",
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
_COUNT = S - 1  # the mask of one packed count
# the key step of each transition, by (from, to) state
_G2G, _G2B, _B2G, _B2B = S**2, S**3, S, 1


def _pack(g2b: int, g2g: int, b2g: int, b2b: int) -> int:
    return ((g2b * S + g2g) * S + b2g) * S + b2b


def _unpack(packed: int) -> tuple[int, int, int, int]:
    return packed >> 192, (packed >> 128) & _COUNT, (packed >> 64) & _COUNT, packed & _COUNT


class HypothesisMap:
    """Exact integer weight of every surviving hypothesis, at most 2K.

    Stored as two dicts, one per landing state, from packed counts to
    weight. Each dict carries an offset that is added to every stored
    key, so a transition that moves all of a state's hypotheses alike
    only moves the offset. Maps are never mutated: an update may share
    a dict with the map it came from, and both states of one map may
    hold the same dict under their two offsets. The one thing a map
    gains after it is made is ``_draw_order``, the sorted keys and
    float distribution that its first ``sample_and_plan`` prepares for
    every later draw from it.

    ``weights`` decodes the map to ``(state, g2b, g2g, b2g, b2b) ->
    weight``; ``len`` counts hypotheses without decoding.
    """

    __slots__ = ("_good", "_good_offset", "_bad", "_bad_offset", "k", "fresh", "_draw_order")

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
        self._draw_order: tuple[list[int], list[int], list[float]] | None = None

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
    states into both, two merges. A sleep from one state gives both
    landing states that state's dict, under their two offsets: the
    2K heaviest of the doubled map are then the K heaviest of the dict,
    cut once at the K-th weight, and both states share the kept dict.
    Only when the (K+1)-th weight ties the K-th do more than K survive
    the cut, and the two copies are then truncated as two states, whose
    tie order splits them.

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
        if good and bad:
            (good, good_offset), (bad, bad_offset) = (
                _merge(good, good_offset + _G2G, bad, bad_offset + _B2G),
                _merge(good, good_offset + _G2B, bad, bad_offset + _B2B),
            )
        else:
            if good:
                src, good_offset, bad_offset = good, good_offset + _G2G, good_offset + _G2B
            else:
                src, good_offset, bad_offset = bad, bad_offset + _B2G, bad_offset + _B2B
            if len(src) > hyp.k:
                cut = sorted(src.values(), reverse=True)[hyp.k - 1]
                src = {key: w for key, w in src.items() if w >= cut}
            good = bad = src
    else:
        raise ValueError(f"unknown observation {z!r}")
    if not good and not bad:
        raise EmptyPosterior("update left no hypotheses")
    if len(good) + len(bad) > 2 * hyp.k:
        good, bad = _truncate(good, bad, 2 * hyp.k)
    return HypothesisMap(good, good_offset, bad, bad_offset, hyp.k)


class SleepTimePlanner:
    """Maps a (p, q) estimate to the optimal slots to sleep after a failure.

    ``plan`` returns None when the estimate breaks ``1 - p > q`` or its
    optimum never harvests; each caller decides what None means.
    Consults a lookup table when one is supplied (nearest cell); on a
    miss, or without a table, computes the exact optimum. (Sampled
    estimates almost never repeat exactly, so there is nothing to cache.)
    A table built for another (r1, r0, gamma) is refused with ValueError.
    """

    def __init__(self, cfg: RewardConfig, table: LookupTable | None = None):
        if table is not None and table.cfg != cfg:
            built, run = astuple(table.cfg), astuple(cfg)
            raise ValueError(f"table was built for (r1, r0, gamma) = {built}, but this run uses {run}")
        self.cfg = cfg
        self.table = table

    def plan(self, p: float, q: float) -> int | None:
        """Sleep count for the estimates; None outside the model or for never."""
        if not is_valid_chain(p, q):
            return None
        policy = None if self.table is None else self.table.lookup(p, q)
        if policy is None:
            policy = optimal_sleep_time(GEParams(p=p, q=q), self.cfg)[0]
        return policy.sleep_slots


def _cdf(weights: list[int]) -> list[float]:
    """The cumulative sum of ``p = w / w.sum()`` on ``w =
    np.array([float(x) for x in weights])``, as
    ``rng.choice(len(weights), p=p)`` builds it before dividing by its
    last entry.

    When the float sum overflows, raises the ValueError choice would,
    saying why.
    """
    floats = list(map(float, weights))
    total = float(np.array(floats).sum())
    if not math.isfinite(total):
        raise ValueError(
            f"Probabilities do not sum to 1: the float sum of {len(weights)} hypothesis weights overflows "
            f"(the largest weight has {max(weights).bit_length()} bits; floats end at 2**1024). "
            "Exact weights this large are a known limit, see ROADMAP.md item 2"
        )
    return list(accumulate([w / total for w in floats]))


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """Index i drawn with probability ``weights[i] / sum(weights)`` from
    their ``_cdf``.

    Inverts the distribution at one uniform: the index, and the
    generator state after it, are those of ``rng.choice`` on the same
    weights.
    """
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
    overflow that sum and raise ValueError. The sorted keys and their
    ``_cdf`` are prepared by the first draw from a map and kept on it,
    so every run that draws from the same map shares them.

    Where the planner has no count (estimates that violate the model
    constraint, or whose optimum is to never harvest) the learner sleeps
    a single slot: it must not stop observing forever on the strength
    of a possibly wrong estimate.
    """
    order = hyp._draw_order
    if order is None:
        good, bad = hyp._good, hyp._bad
        if not good and not bad:
            raise EmptyPosterior("cannot sample from an empty hypothesis set")
        good_keys = sorted(good) if good else []
        bad_keys = sorted(bad) if bad else []
        cdf = _cdf([*map(good.__getitem__, good_keys), *map(bad.__getitem__, bad_keys)])
        order = hyp._draw_order = good_keys, bad_keys, cdf
    good_keys, bad_keys, cdf = order
    idx = _draw(cdf, rng)
    if idx < len(good_keys):
        packed = good_keys[idx] + hyp._good_offset
    else:
        packed = bad_keys[idx - len(good_keys)] + hyp._bad_offset
    g2b, g2g, b2g, b2b = packed >> 192, (packed >> 128) & _COUNT, (packed >> 64) & _COUNT, packed & _COUNT
    # the Beta means, PosteriorCount.mean_p and mean_q
    p_hat, q_hat = g2b / (g2b + g2g), b2g / (b2g + b2b)
    n = planner.plan(p_hat, q_hat)
    return 1 if n is None else n, (p_hat, q_hat)


class PosteriorSamplingLearner:
    """Keep harvesting after a success; after a failure, sleep for the
    plan of one posterior draw. Learns from every slot.

    Follows the group protocol of ``harness``: the state of a group of
    runs is their hypothesis map, which starts from the prior. After a
    failure each run of the group draws from the one map with its own
    stream, so the runs may plan different sleeps. The planner is
    shared across episodes.
    """

    deterministic = False

    def __init__(self, k: int, planner: SleepTimePlanner):
        self.k = k
        self.planner = planner

    def start(self, rngs) -> tuple[HypothesisMap, int]:
        return initial_particles(self.k), 0

    def after_harvest(self, hyp: HypothesisMap, good: bool):
        if good:
            return observe(hyp, Observation.GOOD), 0
        hyp = observe(hyp, Observation.BAD)
        planner = self.planner
        return hyp, lambda rng: sample_and_plan(hyp, rng, planner)[0]

    def after_sleep(self, hyp: HypothesisMap) -> HypothesisMap:
        return observe(hyp, Observation.NONE)


class _Sequential:
    """A policy of the sequential protocol as a group policy of one run.

    The policy keeps its own state, so it can step one run at a time:
    ``start`` takes the one run's stream and the group state is None.
    """

    def __init__(self, policy):
        self.policy = policy

    @property
    def deterministic(self) -> bool:
        return self.policy.deterministic

    def start(self, rngs):
        (rng,) = rngs
        return None, self.policy.reset(rng)

    def after_harvest(self, state, good: bool):
        return None, self.policy.after_harvest(good)

    def after_sleep(self, state) -> None:
        self.policy.after_sleep()


def _run_episodes(policy, rngs: list, states: np.ndarray, cfg: RewardConfig, record=None) -> list[float]:
    """Step the runs of a policy, one per generator in ``rngs``, through
    one hidden state path; each run's discounted reward, in run order.

    This is the one episode loop, shared by ``run_learner`` (one run)
    and the harness, and the only owner of the sleep timer: it counts
    down the sleeps that the policy returns under the group protocol of
    ``harness``. Runs that have seen the same history form a group with
    one policy state, timer and running total. Where ``after_harvest``
    returns a function, each run of the group calls it with its own
    generator and the group splits by count. A group is stepped to the
    horizon before the groups split off it, so a group of one run does
    what that run alone would, and every run's arithmetic is its own.

    A run that raises drops out with every later run; the earlier runs
    still run, and then the exception of the first failing run is
    raised, as stepping the runs one after another would raise it.
    ``record(t, good, timer, state)``, when given, is called for each
    group once slot t is taken, with the observed state (None for a
    sleeping slot), the slots still to sleep and the group's state.
    """
    r1, r0, gamma = cfg.r1, cfg.r0, cfg.gamma
    after_harvest, after_sleep = policy.after_harvest, policy.after_sleep
    hidden = states.astype(bool).tolist()
    totals = [0.0] * len(rngs)
    failure, limit = None, len(rngs)  # runs from limit on have dropped out
    state, timer = policy.start(rngs)
    # groups still to step: (runs in ascending order, first slot, state,
    # timer, total, discount at the first slot)
    pending = [(list(range(len(rngs))), 0, state, timer, 0.0, 1.0)]
    while pending:
        runs, start, state, timer, total, discount = pending.pop()
        if runs[-1] >= limit:
            runs = [run for run in runs if run < limit]
            if not runs:
                continue
        try:
            for t in range(start, len(hidden)):
                if timer == 0:
                    good = hidden[t]
                    total += discount * (r1 if good else -r0)
                    state, timer = after_harvest(state, good)
                    if callable(timer) and len(runs) == 1:
                        timer = timer(rngs[runs[0]])
                    elif callable(timer):
                        plan, parts = timer, {}
                        for run in runs:
                            try:
                                parts.setdefault(plan(rngs[run]), []).append(run)
                            except Exception as exc:
                                failure, limit = exc, run
                                break
                        if not parts:
                            break
                        # the runs of the first count step on here, the others later
                        (timer, runs), *rest = parts.items()
                        for count, part in reversed(rest):
                            pending.append((part, t + 1, state, count, total, discount * gamma))
                            if record is not None:
                                record(t, good, count, state)
                else:
                    good = None
                    state = after_sleep(state)
                    if timer is not None:
                        timer -= 1
                if record is not None:
                    record(t, good, timer, state)
                discount *= gamma
            else:
                for run in runs:
                    totals[run] = total
        except Exception as exc:  # raised once the earlier runs have run
            failure, limit = exc, runs[0]
    if failure is not None:
        raise failure
    return totals


class EpisodeTrace:
    """An episode's JSON-lines trace on its way to ``stream``: lines
    collect in ``lines`` and ``write_jsonl`` moves them to the stream."""

    def __init__(self, stream):
        self.stream = stream
        self.lines: list[str] = []

    def write_jsonl(self) -> None:
        """Write the collected lines to the stream and start afresh."""
        self.stream.write("".join(self.lines))
        self.lines.clear()


def run_learner(
    params: GEParams,
    cfg: RewardConfig,
    k: int,
    horizon: int,
    seed: int,
    stream,
    planner: SleepTimePlanner | None = None,
) -> float:
    """Run one learning episode against a hidden simulated chain,
    writing its trace to ``stream``; the discounted reward total.

    The hidden path and the learner's sampling draws both derive from
    ``seed``, so traces are fully reproducible. The learner plans with
    ``planner``, by default ``SleepTimePlanner(cfg)``; one planner may
    serve many episodes. Each slot's line is the text of
    ``json.dumps(record, sort_keys=True)`` for its record ``{t, action,
    observation, timer, reward, hypothesis_count}``, filled into the
    template of its kind: a good harvest, a bad one or a sleep.
    """
    states = simulate(params, horizon, seed=seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
    learner = PosteriorSamplingLearner(k=k, planner=SleepTimePlanner(cfg) if planner is None else planner)
    trace = EpisodeTrace(stream)
    lines = trace.lines
    # (action, observation, reward) text by the slot's observed state
    shapes = {
        True: ('"harvest"', '"G"', json.dumps(cfg.r1)),
        False: ('"harvest"', '"B"', json.dumps(-cfg.r0)),
        None: ('"sleep"', "null", "0.0"),
    }

    def record(t: int, good: bool | None, timer: int, hyp: HypothesisMap) -> None:
        action, observation, reward = shapes[good]
        lines.append(
            f'{{"action": {action}, "hypothesis_count": {len(hyp)}, "observation": {observation}, '
            f'"reward": {reward}, "t": {t}, "timer": {timer}}}\n'
        )
        if len(lines) == 1024:
            trace.write_jsonl()

    (total,) = _run_episodes(learner, [rng], states, cfg, record)
    trace.write_jsonl()
    return total
