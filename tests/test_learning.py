"""Tests for the posterior-sampling learner and its exact oracle.

The oracle is a brute-force posterior (``exact_posterior`` below): it
enumerates every hidden state history consistent with the observations,
independently of the filter's recursion.
"""

import copy
import io
import json
import math
import os
import random
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest import learning
from rfharvest.beliefs import Observation, RewardConfig
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization, is_valid_chain
from rfharvest.learning import (
    BAD,
    GOOD,
    _B2B,
    _B2G,
    _G2B,
    _G2G,
    _cdf,
    _draw,
    _truncate,
    EmptyPosterior,
    HypothesisMap,
    PosteriorCount,
    SleepTimePlanner,
    UNIFORM_PRIOR,
    initial_particles,
    observe,
    run_learner,
    sample_and_plan,
)
from rfharvest.threshold import build_lookup_table, optimal_sleep_time

CFG = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)

G, B, Z = Observation.GOOD, Observation.BAD, Observation.NONE


class ArrivalState(Enum):
    GOOD = "G"
    BAD = "B"


MAX_EXACT_HISTORY = 25


class HistoryTooLong(ValueError):
    """Brute-force enumeration is exponential; refuse long histories."""


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


def hmap(good=(), bad=(), k=10, fresh=False):
    """Map from (counts, weight) pairs given per state."""
    weights = {(GOOD, *count): w for count, w in good}
    weights.update({(BAD, *count): w for count, w in bad})
    return HypothesisMap.from_weights(weights, k, fresh)


def by_state(hyp):
    """The map keyed (ArrivalState, counts), as the exact posterior is."""
    states = (ArrivalState.GOOD, ArrivalState.BAD)
    return {(states[key[0]], key[1:]): w for key, w in hyp.weights.items()}


def replay(observations, k=10**9):
    s = initial_particles(k)
    for z in observations:
        s = observe(s, z)
    return s


def obs_strategy(max_len=10):
    return st.lists(st.sampled_from([G, B, Z]), min_size=1, max_size=max_len)


# Reference filter, the oracle for observe and sample_and_plan: hypotheses
# as two tuples of (counts, weight), one per state, each sorted by counts.
# Every step branches both tuples, merges duplicate counts and keeps the 2k
# heaviest across both by (-weight, state, counts); draws are made from the
# good tuple followed by the bad one.


def _ref_merged(pairs):
    acc = {}
    for count, weight in pairs:
        acc[count] = acc.get(count, 0) + weight
    return tuple((c, acc[c]) for c in sorted(acc))


def _ref_branch_good(pairs):
    return (
        [(c._replace(g2g=c.g2g + 1), w) for c, w in pairs],
        [(c._replace(g2b=c.g2b + 1), w) for c, w in pairs],
    )


def _ref_branch_bad(pairs):
    return (
        [(c._replace(b2g=c.b2g + 1), w) for c, w in pairs],
        [(c._replace(b2b=c.b2b + 1), w) for c, w in pairs],
    )


def _ref_truncate(good, bad, k):
    tagged = [(0, p) for p in good] + [(1, p) for p in bad]
    tagged.sort(key=lambda t: (-t[1][1], t[0], t[1][0]))
    kept = tagged[: 2 * k]
    return (
        tuple(sorted(p for s, p in kept if s == 0)),
        tuple(sorted(p for s, p in kept if s == 1)),
    )


def reference_observe(good, bad, k, fresh, z):
    if fresh:
        if z is Z:
            return good, bad
        return (good if z is G else ()), (bad if z is B else ())
    gg, gb = _ref_branch_good(good)
    bg, bb = _ref_branch_bad(bad)
    good = _ref_merged(gg + bg) if z is not B else ()
    bad = _ref_merged(gb + bb) if z is not G else ()
    return _ref_truncate(good, bad, k)


class _FixedPick:
    """Stands in for the draw: records the distribution it is given and
    returns a chosen index."""

    def __init__(self, pick):
        self.pick = pick
        self.cdf = None

    def __call__(self, cdf, rng):
        self.cdf = cdf
        return self.pick


class _NullPlanner:
    def plan(self, p, q):
        return None


def draw_order(hyp):
    """(cumulative distribution, estimates by index) that sample_and_plan
    draws from."""
    estimates = []
    for i in range(len(hyp.weights)):
        pick = _FixedPick(i)
        with mock.patch.object(learning, "_draw", pick):
            _, est = sample_and_plan(hyp, None, _NullPlanner())
        estimates.append(est)
    return pick.cdf, estimates


class TestBranchUpdates:
    def test_good_state_branching(self):
        out = observe(hmap(good=[(UNIFORM_PRIOR, 1)]), Z)
        assert out.weights == {(GOOD, 1, 2, 1, 1): 1, (BAD, 2, 1, 1, 1): 1}

    def test_bad_state_branching(self):
        out = observe(hmap(bad=[(UNIFORM_PRIOR, 1)]), Z)
        assert out.weights == {(GOOD, 1, 1, 2, 1): 1, (BAD, 1, 1, 1, 2): 1}

    def test_harvest_keeps_only_landing_state(self):
        s = hmap(good=[(UNIFORM_PRIOR, 1)], bad=[(PosteriorCount(3, 1, 2, 2), 7)])
        assert observe(s, G).weights == {(GOOD, 1, 2, 1, 1): 1, (GOOD, 3, 1, 3, 2): 7}
        assert observe(s, B).weights == {(BAD, 2, 1, 1, 1): 1, (BAD, 3, 1, 2, 3): 7}

    def test_weights_carried_without_renormalization(self):
        out = observe(hmap(good=[(UNIFORM_PRIOR, 5)]), Z)
        assert list(out.weights.values()) == [5, 5]

    def test_merge_sums_weights(self):
        # a good and a bad hypothesis branching onto the same counts merge
        s = hmap(good=[(PosteriorCount(1, 1, 2, 1), 1)], bad=[(PosteriorCount(1, 2, 1, 1), 3)])
        assert observe(s, G).weights == {(GOOD, 1, 2, 2, 1): 4}


class TestObserve:
    def test_sleep_then_bad_observation(self):
        # starting from a known good state, one sleeping slot and a
        # failed harvest leave exactly two bad-state hypotheses
        s = hmap(good=[(UNIFORM_PRIOR, 1)])
        s = observe(s, Z)
        s = observe(s, B)
        assert s.weights == {(BAD, 2, 2, 1, 1): 1, (BAD, 2, 1, 1, 2): 1}

    def test_consecutive_good_harvests_single_hypothesis(self):
        s = replay([G, G])
        assert s.weights == {(GOOD, 1, 2, 1, 1): 1}

    def test_fresh_sleep_keeps_prior(self):
        s = observe(initial_particles(4), Z)
        assert not s.fresh
        assert s.weights == {(GOOD, *UNIFORM_PRIOR): 1, (BAD, *UNIFORM_PRIOR): 1}

    def test_sleep_doubles_total_weight(self):
        s = replay([G, Z, Z, Z])
        w = sum(s.weights.values())
        s2 = observe(s, Z)
        assert sum(s2.weights.values()) == 2 * w

    def test_harvest_never_grows_hypothesis_count(self):
        s = replay([G, Z, Z, Z])
        before = len(s.weights)
        assert len(observe(s, G).weights) <= before
        assert len(observe(s, B).weights) <= before

    def test_truncation_bound(self):
        s = initial_particles(3)
        for _ in range(12):
            s = observe(s, Z)
        assert len(s.weights) <= 6

    def test_truncation_keeps_heaviest(self):
        s = initial_particles(2)
        for _ in range(8):
            s = observe(s, Z)
        kept_min = min(s.weights.values())
        assert kept_min >= 1
        assert len(s.weights) == 4

    def test_empty_posterior_raises(self):
        s = hmap(good=[(UNIFORM_PRIOR, 1)], fresh=True)
        with pytest.raises(EmptyPosterior):
            observe(s, B)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            initial_particles(0)

    @given(obs_strategy(max_len=12))
    @settings(max_examples=100, deadline=None)
    def test_count_bookkeeping_invariant(self, zs):
        # every hypothesis counts exactly the elapsed transitions
        s = replay(zs)
        transitions = len(zs) - 1
        for key in s.weights:
            assert sum(key[1:]) == 4 + transitions

    @given(st.integers(1, 4), st.lists(st.sampled_from([G, B, Z, Z]), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_filter(self, k, zs):
        # small k makes truncation fire
        assert_matches_reference_filter(k, zs)

    @given(st.integers(1, 6), st.lists(st.sampled_from([G, B, Z]), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_filter_untruncated_from_sleeps(self, leading_sleeps, zs):
        # no truncation, and the episode opens with sleeps on the fresh prior
        assert_matches_reference_filter(10**9, [Z] * leading_sleeps + zs)

    def test_unknown_observation_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown observation 'X'"):
            observe(initial_particles(3), "X")
        with pytest.raises(ValueError, match="unknown observation 'X'"):
            observe(replay([G, Z]), "X")

    def test_fresh_harvest_without_match_raises(self):
        with pytest.raises(EmptyPosterior, match="initial observation"):
            observe(hmap(bad=[(UNIFORM_PRIOR, 1)], fresh=True), G)


def assert_matches_reference_filter(k, zs):
    """After every step the map equals the reference filter's, entry for
    entry, and sample_and_plan draws from the reference's order with the
    same float probabilities."""
    s = initial_particles(k)
    good = bad = ((UNIFORM_PRIOR, 1),)
    fresh = True
    for z in zs:
        s = observe(s, z)
        good, bad = reference_observe(good, bad, k, fresh, z)
        fresh = False
        ref_entries = [(ArrivalState.GOOD, c, w) for c, w in good]
        ref_entries += [(ArrivalState.BAD, c, w) for c, w in bad]
        assert by_state(s) == {(state, c): w for state, c, w in ref_entries}
        assert len(s) == len(s.weights)
        cdf, estimates = draw_order(s)
        ref_weights = np.array([float(w) for _, _, w in ref_entries])
        # choice's cumulative sum of the normalized float weights
        assert cdf == (ref_weights / ref_weights.sum()).cumsum().tolist()
        assert estimates == [(c.mean_p, c.mean_q) for _, c, _ in ref_entries]


def ranked_truncate(good, bad, keep):
    """The oracle for ``_truncate``: ranks every hypothesis by (-weight,
    state, key), the order the filter keeps, and cuts the list."""
    ranked = [(-w, GOOD, key) for key, w in good.items()]
    ranked += [(-w, BAD, key) for key, w in bad.items()]
    ranked.sort()
    del ranked[keep:]
    return (
        {key: -w for w, state, key in ranked if state == GOOD},
        {key: -w for w, state, key in ranked if state == BAD},
    )


# few distinct weights, so most cuts fall inside a run of ties
TIED_WEIGHTS = st.dictionaries(
    st.integers(0, 2**70), st.sampled_from([1, 2, 3, 2**90, 2**90 + 1]), max_size=30
)
# mostly distinct weights, so most cuts fall between two weights
DISTINCT_WEIGHTS = st.dictionaries(st.integers(0, 2**70), st.integers(1, 2**100), max_size=30)
WEIGHT_MAPS = st.one_of(TIED_WEIGHTS, DISTINCT_WEIGHTS)


@st.composite
def one_state_maps(draw):
    """(k, state, counts -> weight): k, k + 1 or 2k hypotheses, all in one
    state, with weights from a few values (ties at the cut are common)
    or from a wide range (ties are rare)."""
    k = draw(st.integers(1, 20))
    n = draw(st.sampled_from([k, k + 1, 2 * k]))
    counts = draw(st.lists(st.tuples(*[st.integers(1, 40)] * 4), min_size=n, max_size=n, unique=True))
    weight = draw(st.sampled_from([st.sampled_from([1, 2, 3]), st.integers(1, 2**90)]))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return k, draw(st.sampled_from([GOOD, BAD])), dict(zip(counts, weights))


class TestOneStateSleep:
    """A sleep from a map whose hypotheses all sit in one state cuts that
    state's dict once, where the two-merge update truncated two copies."""

    @given(one_state_maps())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_copy_truncation_and_reference_filter(self, case):
        k, state, weights = case
        src = HypothesisMap.from_weights({(state, *c): w for c, w in weights.items()}, k)
        entries = src._good if state == GOOD else src._bad
        before, entries_before = src.weights, dict(entries)
        out = observe(src, Z)
        # the update it replaces: the dict under both landing offsets, cut as two maps
        offsets = (_G2G, _G2B) if state == GOOD else (_B2G, _B2B)
        two = (entries, entries) if len(entries) <= k else _truncate(entries, entries, 2 * k)
        assert out.weights == HypothesisMap(two[0], offsets[0], two[1], offsets[1], k).weights
        pairs = tuple(sorted((PosteriorCount(*c), w) for c, w in weights.items()))
        ref_good, ref_bad = reference_observe(*((pairs, ()) if state == GOOD else ((), pairs)), k, False, Z)
        expected = {(ArrivalState.GOOD, c): w for c, w in ref_good}
        expected.update({(ArrivalState.BAD, c): w for c, w in ref_bad})
        assert by_state(out) == expected
        ranked = sorted(weights.values(), reverse=True)
        if len(ranked) <= k or ranked[k - 1] != ranked[k]:
            assert out._good is out._bad
        assert src.weights == before and entries == entries_before

    @pytest.mark.parametrize("state", [GOOD, BAD])
    def test_tie_at_the_cut_falls_back_to_two_copies(self, state):
        # k = 2 of three hypotheses whose 2nd and 3rd weights tie: the
        # good copy takes its ties first, so the two states keep different ones
        weights = {(1, 1, 1, 1): 5, (1, 1, 1, 2): 3, (1, 1, 2, 1): 3}
        src = HypothesisMap.from_weights({(state, *c): w for c, w in weights.items()}, 2)
        entries = src._good if state == GOOD else src._bad
        out = observe(src, Z)
        good, bad = _truncate(entries, entries, 4)
        assert (out._good, out._bad) == (good, bad)
        assert out._good != out._bad


class TestTruncate:
    @given(WEIGHT_MAPS, WEIGHT_MAPS, st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_ranked_oracle(self, good, bad, data):
        total = len(good) + len(bad)
        if total < 2:
            return
        # observe truncates only maps larger than the number kept
        keep = data.draw(st.integers(1, total - 1))
        assert _truncate(good, bad, keep) == ranked_truncate(good, bad, keep)

    @given(WEIGHT_MAPS, WEIGHT_MAPS)
    @settings(max_examples=200, deadline=None)
    def test_one_over_the_limit_matches_ranked_oracle(self, good, bad):
        # observe's usual case: one update past 2K, so one hypothesis goes
        keep = len(good) + len(bad) - 1
        if keep < 1:
            return
        assert _truncate(good, bad, keep) == ranked_truncate(good, bad, keep)

    def test_ties_at_the_cut_go_good_first_then_ascending_keys(self):
        good, bad = {7: 2, 5: 1, 9: 1}, {1: 1, 3: 2}
        assert _truncate(good, bad, 3) == ({7: 2, 5: 1}, {3: 2})
        assert _truncate(good, bad, 4) == ({7: 2, 5: 1, 9: 1}, {3: 2})


# exact weights as the filter carries them: small counts, ties, and
# ratios up to 2^1000 that underflow a float probability
DRAW_WEIGHT = st.one_of(
    st.integers(1, 10), st.sampled_from([1, 2**500, 2**1000]), st.integers(1, 2**1000)
)


class _FixedUniform(np.random.Generator):
    """A generator whose every uniform is ``u``; ``choice`` draws
    through ``random`` too, so both sides see the same uniform."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u if size is None else np.full(size, self.u)


def assert_draws_as_choice_at_every_cdf_step(weights):
    """``_draw`` picks what ``Generator.choice`` picks with the uniform on
    each step of choice's normalized cumulative sum and one float either
    side of it. A random uniform almost never lands where two roundings
    of the cumulative sums disagree; these do."""
    floats = np.array([float(w) for w in weights])
    p = floats / floats.sum()
    steps = p.cumsum()
    steps /= steps[-1]
    probes = {np.nextafter(b, d) for b in steps for d in (-1.0, 1.0)} | set(steps)
    for u in sorted(float(u) for u in probes if 0.0 <= u < 1.0):
        assert _draw(_cdf(weights), _FixedUniform(u)) == int(_FixedUniform(u).choice(len(p), p=p)), u


class TestDraw:
    @given(st.lists(DRAW_WEIGHT, min_size=1, max_size=80), st.integers(0, 2**64 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_generator_choice(self, weights, seed):
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        floats = np.array([float(w) for w in weights])
        expected = int(clone.choice(len(floats), p=floats / floats.sum()))
        assert _draw(_cdf(weights), rng) == expected
        assert rng.bit_generator.state == clone.bit_generator.state

    @given(st.lists(DRAW_WEIGHT, min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_matches_generator_choice_at_every_cdf_step(self, weights):
        assert_draws_as_choice_at_every_cdf_step(weights)

    def test_matches_generator_choice_on_sums_that_round_by_order(self):
        # with 8 or more weights numpy sums pairwise; mixed scales make
        # that sum round differently from a running sum on about one
        # list in fifteen, so these 300 lists catch a draw that sums
        # the weights in another order
        rnd = random.Random(19)
        for _ in range(300):
            weights = [rnd.getrandbits(rnd.choice([4, 60, 1000])) + 1 for _ in range(rnd.randint(8, 16))]
            assert_draws_as_choice_at_every_cdf_step(weights)

    def test_single_hypothesis_takes_one_uniform(self):
        rng = np.random.default_rng(3)
        clone = copy.deepcopy(rng)
        assert _draw(_cdf([2**1000]), rng) == 0
        clone.random()
        assert rng.bit_generator.state == clone.bit_generator.state

    @given(st.lists(st.integers(2**1010, int(sys.float_info.max)) | st.integers(1, 2**60), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_sums_near_the_float_limit_warn_nothing(self, weights):
        # on both sides of the guard at 2^1023: the cdf of the unguarded
        # sum where it is finite, else the ValueError, and no warning
        floats = [float(w) for w in weights]
        with np.errstate(over="ignore"):
            total = float(np.array(floats).sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isfinite(total):
                assert _cdf(weights) == list(np.cumsum([w / total for w in floats]))
            else:
                with pytest.raises(ValueError, match="ROADMAP.md item 2"):
                    _cdf(weights)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_float_sum_overflow_raises_as_choice_does(self):
        weights = [2**1023, 2**1023 + 1, 5]
        rng = np.random.default_rng(0)
        clone = copy.deepcopy(rng)
        floats = np.array([float(w) for w in weights])
        with pytest.raises(ValueError, match="Probabilities do not sum to 1"):
            clone.choice(len(floats), p=floats / floats.sum())
        with pytest.raises(ValueError, match="Probabilities do not sum to 1") as err:
            _cdf(weights)
        assert "3 hypothesis weights" in str(err.value)
        assert "largest weight has 1024 bits" in str(err.value)
        assert "ROADMAP.md item 2" in str(err.value)
        # like choice, a refused draw takes nothing from the generator
        s = hmap(bad=[(PosteriorCount(1, 1, 1, 1 + i), w) for i, w in enumerate(weights)])
        with pytest.raises(ValueError, match="Probabilities do not sum to 1"):
            sample_and_plan(s, rng, _NullPlanner())
        assert rng.bit_generator.state == clone.bit_generator.state


COUNT = st.one_of(st.integers(0, 2**32), st.integers(2**32 + 1, 2**63))


class TestHypothesisMap:
    @given(st.dictionaries(st.tuples(st.sampled_from([GOOD, BAD]), COUNT, COUNT, COUNT, COUNT), st.integers(1, 2**80)))
    @settings(max_examples=200, deadline=None)
    def test_from_weights_round_trip(self, weights):
        hyp = HypothesisMap.from_weights(weights, k=3)
        assert hyp.weights == weights
        assert len(hyp) == len(weights)

    def test_update_at_large_counts(self):
        # counts far above 2**32 still advance as plain counts
        big = PosteriorCount(2**63, 2**40, 2**33 + 5, 2**62)
        s = observe(hmap(good=[(big, 3)]), Z)
        assert s.weights == {
            (GOOD, big.g2b, big.g2g + 1, big.b2g, big.b2b): 3,
            (BAD, big.g2b + 1, big.g2g, big.b2g, big.b2b): 3,
        }

    @pytest.mark.parametrize(
        "key, message",
        [
            ((GOOD, 1, 2**64, 1, 1), r"must lie in \[0, S\)"),
            ((BAD, -1, 1, 1, 1), r"must lie in \[0, S\)"),
            ((2, 1, 1, 1, 1), "state must be GOOD"),
        ],
    )
    def test_from_weights_refuses_unpackable_keys(self, key, message):
        with pytest.raises(ValueError, match=message):
            HypothesisMap.from_weights({key: 1}, k=3)

    def test_updates_leave_earlier_maps_unchanged(self):
        s = replay([G, Z, Z, B, Z])
        before = s.weights
        for z in (G, B, Z):
            observe(s, z)
        assert s.weights == before


class TestExactPosterior:
    def test_all_harvest_history_is_single_count(self):
        post = exact_posterior([G, G, B, G])
        assert len(post.entries) == 1
        ((state, count), appearances), = post.entries.items()
        assert state is ArrivalState.GOOD
        assert appearances == 1
        assert count == PosteriorCount(2, 2, 2, 1)

    def test_history_length_bound(self):
        with pytest.raises(HistoryTooLong):
            exact_posterior([Z] * 26)

    def test_beta_mean_for_fully_observed_history(self):
        # each block adds one good-to-good stay and one good-to-bad exit:
        # 20 exits out of 40 good-state departures, smoothed mean 21/42
        history = [G]
        for _ in range(20):
            history.extend([G, B, G])
        post = exact_posterior(history)
        mean_p, _ = post.posterior_mean_params()
        assert mean_p == pytest.approx(21.0 / 42.0, abs=1e-12)

    @given(obs_strategy(max_len=8))
    @settings(max_examples=120, deadline=None)
    def test_untruncated_filter_matches_brute_force(self, zs):
        # appearance counts from the recursive filter equal the
        # brute-force enumeration exactly, as integers
        post = exact_posterior(zs)
        s = replay(zs)
        assert by_state(s) == post.entries

    def test_state_marginals_sum_to_one(self):
        post = exact_posterior([G, Z, Z, B, Z])
        total = post.state_marginal(ArrivalState.GOOD) + post.state_marginal(ArrivalState.BAD)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_informative_prior_shifts_counts(self):
        prior = PosteriorCount(3, 7, 2, 5)
        post = exact_posterior([G, G], prior=prior)
        ((state, count), appearances), = post.entries.items()
        assert count == prior._replace(g2g=prior.g2g + 1)
        assert appearances == 1

    @pytest.mark.parametrize(
        "zs",
        [
            [G, Z, Z, B, Z, Z],
            [Z, Z, Z, Z, Z],
            [B, Z, G, Z, Z, B],
            [G, G, Z, B, B, Z, Z, G],
        ],
    )
    def test_state_marginal_matches_quadrature(self, zs):
        post = exact_posterior(zs)
        marg = quadrature_state_marginal(zs, m=400)
        assert post.state_marginal(ArrivalState.GOOD) == pytest.approx(marg, abs=1e-4)


def quadrature_state_marginal(zs, m=400):
    """Midpoint-rule posterior P(last state good | history) on an m x m grid."""
    mid = (np.arange(m) + 0.5) / m
    p, q = np.meshgrid(mid, mid, indexing="ij")
    f_good = np.ones((m, m))
    f_bad = np.ones((m, m))
    if zs[0] is G:
        f_bad = np.zeros_like(f_bad)
    elif zs[0] is B:
        f_good = np.zeros_like(f_good)
    for z in zs[1:]:
        n_good = f_good * (1.0 - p) + f_bad * q
        n_bad = f_good * p + f_bad * (1.0 - q)
        if z is G:
            n_bad = np.zeros_like(n_bad)
        elif z is B:
            n_good = np.zeros_like(n_good)
        f_good, f_bad = n_good, n_bad
    num = f_good.mean()
    den = (f_good + f_bad).mean()
    return float(num / den)


class TestSampleAndPlan:
    def test_single_particle_is_certain(self):
        planner = SleepTimePlanner(CFG)
        s = hmap(bad=[(PosteriorCount(2, 6, 3, 5), 4)])
        rng = np.random.default_rng(0)
        _, est = sample_and_plan(s, rng, planner)
        assert est == (2.0 / 8.0, 3.0 / 8.0)

    def test_uniform_prior_falls_back_to_one_slot(self):
        # the prior means (0.5, 0.5) sit outside the positively
        # correlated region, so the protective fallback applies
        planner = SleepTimePlanner(CFG)
        s = hmap(bad=[(UNIFORM_PRIOR, 1)])
        sleeps, est = sample_and_plan(s, np.random.default_rng(0), planner)
        assert est == (0.5, 0.5)
        assert sleeps == 1

    def test_never_harvest_estimate_falls_back_to_one_slot(self):
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        planner = SleepTimePlanner(cfg)
        # counts implying scarce energy: the plan for them would be to
        # never harvest
        count = PosteriorCount(4, 6, 2, 18)
        check, _ = optimal_sleep_time(GEParams(count.mean_p, count.mean_q), cfg)
        assert check.never_harvest
        sleeps, _ = sample_and_plan(hmap(bad=[(count, 1)]), np.random.default_rng(0), planner)
        assert sleeps == 1

    def test_draw_frequencies_match_weights(self):
        planner = SleepTimePlanner(CFG)
        counts = [
            (PosteriorCount(1, 3, 2, 2), 1),
            (PosteriorCount(2, 2, 2, 2), 3),
            (PosteriorCount(3, 1, 2, 2), 6),
        ]
        s = hmap(bad=counts)
        rng = np.random.default_rng(42)
        draws = 100_000
        seen = {count: 0 for count, _ in counts}
        for _ in range(draws):
            _, est = sample_and_plan(s, rng, planner)
            for count, _ in counts:
                if est == (count.mean_p, count.mean_q):
                    seen[count] += 1
        total_w = sum(weight for _, weight in counts)
        for count, weight in counts:
            expect = draws * weight / total_w
            sd = math.sqrt(draws * (weight / total_w) * (1 - weight / total_w))
            assert abs(seen[count] - expect) < 3.0 * sd

    def test_draws_from_one_map_share_its_prepared_distribution(self):
        # the runs of a group draw from one map: its keys are sorted and its
        # CDF built once, and each draw takes only its own uniform
        planner = SleepTimePlanner(CFG)
        s = replay([G, Z, Z, B, Z, Z, B], k=4)
        seeds = range(6)
        alone = [sample_and_plan(replay([G, Z, Z, B, Z, Z, B], k=4), np.random.default_rng(i), planner) for i in seeds]
        with mock.patch.object(learning, "_cdf", wraps=learning._cdf) as cdf:
            shared = [sample_and_plan(s, np.random.default_rng(i), planner) for i in seeds]
        assert cdf.call_count == 1
        assert shared == alone

    def test_empty_set_raises(self):
        with pytest.raises(EmptyPosterior):
            sample_and_plan(hmap(), np.random.default_rng(0), SleepTimePlanner(CFG))

    def test_planner_uses_table_when_supplied(self):
        table = build_lookup_table([0.4, 0.6, 0.8], [2.0, 4.0, 8.0], CFG)
        planner = SleepTimePlanner(CFG, table=table)
        cell = table.cell(1, 1)
        assert planner.plan(cell.p, cell.q) == cell.policy.sleep_slots

    @pytest.mark.parametrize("with_table", [False, True])
    def test_plan_has_no_count_outside_the_model_or_for_never(self, with_table):
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        # (0.4, 0.1) is the cell (pi_g 0.2, t_b 10), whose optimum never harvests
        never = PosteriorCount(4, 6, 2, 18)
        table = build_lookup_table([0.2, 0.6], [2.0, 10.0], cfg) if with_table else None
        if with_table:
            assert table.lookup(never.mean_p, never.mean_q).never_harvest
        else:
            assert optimal_sleep_time(GEParams(never.mean_p, never.mean_q), cfg)[0].never_harvest
        planner = SleepTimePlanner(cfg, table)
        assert planner.plan(0.5, 0.5) is None
        assert planner.plan(never.mean_p, never.mean_q) is None

    def test_planner_refuses_table_for_another_reward(self):
        other = RewardConfig(r1=10.0, r0=1.0, gamma=0.99)
        table = build_lookup_table([0.4, 0.6, 0.8], [2.0, 4.0, 8.0], other)
        with pytest.raises(ValueError, match=r"built for \(r1, r0, gamma\) = \(10.0, 1.0, 0.99\)"):
            SleepTimePlanner(CFG, table=table)
        with pytest.raises(ValueError, match="table was built for"):
            planner = SleepTimePlanner(CFG, table)
            run_learner(from_burst_parameterization(0.6, 2.5), CFG, 5, 60, 1, io.StringIO(), planner)


def run_trace(params, cfg, k, horizon, seed, planner=None):
    """``run_learner``'s total and its trace, one parsed record per line."""
    out = io.StringIO()
    total = run_learner(params, cfg, k, horizon, seed, out, planner)
    return total, [json.loads(line) for line in out.getvalue().splitlines()]


class WriteLog(io.StringIO):
    """A text stream that remembers the size of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text.count("\n"))
        return super().write(text)


class TestRunLearner:
    def test_trace_is_reproducible(self):
        params = from_burst_parameterization(0.6, 2.5)
        assert run_trace(params, CFG, k=5, horizon=120, seed=7) == run_trace(params, CFG, k=5, horizon=120, seed=7)

    def test_trace_schema_and_jsonl(self):
        params = from_burst_parameterization(0.6, 2.5)
        _, records = run_trace(params, CFG, k=5, horizon=50, seed=3)
        assert len(records) == 50
        assert set(records[0]) == {"t", "action", "observation", "timer", "reward", "hypothesis_count"}
        assert records[0]["t"] == 0 and records[0]["action"] == "harvest"

    @given(
        st.tuples(st.floats(0.02, 0.4), st.floats(0.05, 0.5)).filter(lambda pq: is_valid_chain(*pq)),
        st.integers(1, 4),
        st.integers(0, 2**32),
        st.sampled_from([1, 2, 1023, 1024, 1025, 2049]),
        st.sampled_from([1, 10, 2.5, 10.0]),
        st.sampled_from([1, 10, 0.5, 10.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_jsonl_lines_are_json_dumps_of_records(self, pq, k, seed, horizon, r1, r0):
        # horizons straddle the 1024-line writes; int rewards print as ints
        cfg = RewardConfig(r1=r1, r0=r0, gamma=0.99)
        out = WriteLog()
        total = run_learner(GEParams(*pq), cfg, k, horizon, seed, out)
        assert sum(out.writes) == horizon and max(out.writes) <= 1024
        lines = out.getvalue().splitlines()
        acc, discount = 0.0, 1.0
        for t, line in enumerate(lines):
            rec = json.loads(line)
            assert line == json.dumps(rec, sort_keys=True)
            expected = {"G": r1, "B": -r0, None: 0.0}[rec["observation"]]
            assert rec["t"] == t and rec["reward"] == expected and type(rec["reward"]) is type(expected)
            acc += discount * rec["reward"]
            discount *= cfg.gamma
        assert acc == total

    def test_hypothesis_count_bounded(self):
        params = from_burst_parameterization(0.6, 2.5)
        _, records = run_trace(params, CFG, k=4, horizon=200, seed=11)
        assert max(r["hypothesis_count"] for r in records) <= 8

    def test_tail_rewards_negligible(self):
        # discounting makes everything after slot 500 irrelevant
        params = from_burst_parameterization(0.6, 2.5)
        total, records = run_trace(params, CFG, k=10, horizon=2_000, seed=1)
        tail = sum(r["reward"] * CFG.gamma ** r["t"] for r in records if r["t"] >= 500)
        assert abs(tail) < 0.01 * abs(total)

    def test_learned_sleep_matches_known_parameter_optimum(self):
        # once the posterior has converged, the planned sleeps should
        # settle on the optimum for the posterior-mean parameters
        params = from_burst_parameterization(0.6, 2.5)
        _, records = run_trace(params, CFG, k=20, horizon=3_000, seed=2)
        plans = [r["timer"] for r in records if r["action"] == "harvest" and r["observation"] == "B"]
        late = plans[-30:]
        modal = max(set(late), key=late.count)
        # posterior mean estimate at the end of the run
        s = replay_learner_particles(records)
        mean_p, mean_q = weighted_mean_estimates(s)
        expected, _ = optimal_sleep_time(GEParams(mean_p, mean_q), CFG)
        assert modal == expected.sleep_slots
        assert late.count(modal) > len(late) // 2

    def test_memory_does_not_grow_with_the_horizon(self):
        # lines reach the stream as the episode runs, so a longer run
        # holds no more than the larger integer weights it carries
        params = from_burst_parameterization(0.6, 2.5)

        def peak(horizon):
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    run_learner(params, CFG, 20, horizon, 1, sink)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(1_100)  # the first run also pays for lazy imports and the discount-term cache
        short, long = peak(1_100), peak(4_000)
        assert long - short <= 64 * 1024, (short, long)

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="known limit: _cdf converts the exact weights with float(), whose sum "
        "overflows once they pass 2**1024 (from horizon 2423 at this seed)",
    )
    def test_long_run_survives_weight_overflow(self):
        params = from_burst_parameterization(0.3, 8.0)
        _, records = run_trace(params, CFG, k=20, horizon=3_000, seed=1)
        assert len(records) == 3_000

    def test_weight_overflow_fails_without_a_warning(self):
        # the reproducer above with every warning an error: a library
        # caller gets only the ValueError that names the known limit
        params = from_burst_parameterization(0.3, 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Probabilities do not sum to 1.*ROADMAP.md item 2"):
                run_trace(params, CFG, k=20, horizon=3_000, seed=1)


def replay_learner_particles(records):
    s = initial_particles(20)
    for r in records:
        z = {"G": G, "B": B, None: Z}[r["observation"]]
        s = observe(s, z)
    return s


def weighted_mean_estimates(s):
    parts = [(PosteriorCount(*key[1:]), weight) for key, weight in sorted(s.weights.items())]
    logs = np.array([math.log(weight) for _, weight in parts])
    w = np.exp(logs - logs.max())
    w /= w.sum()
    mean_p = float(sum(wi * count.mean_p for wi, (count, _) in zip(w, parts)))
    mean_q = float(sum(wi * count.mean_q for wi, (count, _) in zip(w, parts)))
    return mean_p, mean_q
