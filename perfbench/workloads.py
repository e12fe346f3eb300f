"""The benchmark's workloads.

Each workload turns the run seed into its inputs during set-up. A run
is a sequence of rounds; ``round(r)`` lists round r's operations, and
the k-th operation of every round is of the same kind (same call, same
size), so per-kind medians can be taken across rounds. Workloads whose
cost depends on the seed (``compare``, ``learn_long``) draw fresh
inputs for every round, which averages that dependence out; the others
repeat fixed inputs. An operation has a timed part (``execute``, the
call into ``rfharvest``) and an untimed part (``check``, which
validates the output and yields the bytes that feed the output digest).

The library receives only the generated inputs; the seed itself never
reaches it except as the seeds of those inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rfharvest import battery, cli, harness, threshold
from rfharvest.beliefs import RewardConfig
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization
from rfharvest.value_iteration import VISettings

GAMMA = 0.99
SYMMETRIC = RewardConfig(r1=10.0, r0=10.0, gamma=GAMMA)
# cheap, symmetric and expensive failure, as in acceptance criterion 1
REWARD_SETTINGS = (
    RewardConfig(r1=10.0, r0=1.0, gamma=GAMMA),
    SYMMETRIC,
    RewardConfig(r1=1.0, r0=10.0, gamma=GAMMA),
)
# the standard 20x20 (pi_g, t_b) grid of the lookup tables
PI_G_AXIS = tuple(0.05 + 0.9 * i / 19 for i in range(20))
T_B_AXIS = tuple(1.1 + 18.9 * i / 19 for i in range(20))


def derived_seed(*words: int) -> int:
    """A 31-bit seed drawn from the run seed and a position."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint32)[0] >> 1)


def valid_grid_chains() -> list[GEParams]:
    """Chains of the standard grid that satisfy 0 < p < 1 and 1 - p > q."""
    chains = []
    for pi_g in PI_G_AXIS:
        for t_b in T_B_AXIS:
            q = 1.0 / t_b
            p = q * (1.0 - pi_g) / pi_g
            if 0.0 < p < 1.0 and 1.0 - p > q:
                chains.append(GEParams(p=p, q=q))
    return chains


@dataclass
class Outcome:
    """Checked result of one operation.

    ``ok`` is false when the operation raised, exited non-zero or failed
    its check; ``wrong`` marks only the last case, a completed operation
    whose output is incorrect. ``work`` is credited only when ok.
    """

    ok: bool
    work: float
    output: bytes
    error: str | None = None
    wrong: bool = False
    stats: dict = field(default_factory=dict)


def _ok(work: float, output: bytes, **stats) -> Outcome:
    return Outcome(ok=True, work=work, output=output, stats=stats)


def _wrong(reason: str, output: bytes = b"") -> Outcome:
    return Outcome(ok=False, work=0.0, output=output, error=reason, wrong=True)


class Workload:
    """Base: subclasses set ``name``, ``unit``, ``trace_rounds`` and
    either ``ops`` (the same operations every round) or ``round``.

    By default an untraced run repeats rounds until its time is up. A
    workload whose operations are expected to fail sets ``round_seconds``,
    the wall time of one round on the development host; its runs then do
    ``seconds / round_seconds`` rounds, so that the attempted and failed
    counts depend only on the seed and the run length, not on the
    host's speed.
    """

    name = ""
    unit = ""
    trace_rounds = 1
    round_seconds: float | None = None
    ops: list = []

    def round(self, r: int) -> list:
        return self.ops

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Compare(Workload):
    """``harness.evaluate`` on the reference chain with the desk policies.

    One operation builds the 20x20 planner table (users pay for it on
    every run) and evaluates paths x runs episodes per policy.
    """

    name = "compare"
    unit = "episodes"
    trace_rounds = 5
    PATHS = 6
    RUNS = 2
    HORIZON = 500
    K = 20
    # evaluate runs the two sampling policies runs_per_path times per
    # path and the two deterministic ones once per path
    EPISODES = PATHS * (RUNS + 1 + RUNS + 1)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.params = from_burst_parameterization(pi_g=0.6, t_b=2.5)

    def round(self, r: int) -> list:
        return [derived_seed(self.seed, 1, r)]

    def execute(self, base_seed: int):
        table = threshold.build_lookup_table(PI_G_AXIS, T_B_AXIS, SYMMETRIC)
        opts = {"table": table}
        spec = harness.ExperimentSpec(
            params=self.params,
            cfg=SYMMETRIC,
            horizon=self.HORIZON,
            paths=self.PATHS,
            runs_per_path=self.RUNS,
            base_seed=base_seed,
            policies=(
                harness.PolicyDef("bayes_learner", {"k": self.K, **opts}),
                harness.PolicyDef("impoverished_posterior", dict(opts)),
                harness.PolicyDef("random_sampling", dict(opts)),
                harness.PolicyDef("always_harvest"),
            ),
        )
        return harness.evaluate(spec)

    def check(self, base_seed: int, result) -> Outcome:
        output = json.dumps(result.to_json_dict(), sort_keys=True).encode()
        if len(result.policy_keys) != 4:
            return _wrong(f"expected 4 policy keys, got {list(result.policy_keys)}", output)
        for key in result.policy_keys:
            if not math.isfinite(result.means[key]):
                return _wrong(f"mean of {key} is {result.means[key]!r}", output)
        return _ok(self.EPISODES, output)


class LearnLong(Workload):
    """``rfharvest learn`` in-process, one episode per invocation.

    Horizons sit on both sides of the point where the exact integer
    weights overflow a float (about 2.4k-3k slots on the bursty chain
    and 4.4k-5.5k on the reference chain): the 2000-slot episodes
    complete, the longer ones reach the overflow.
    """

    name = "learn_long"
    unit = "slots"
    trace_rounds = 3
    round_seconds = 2.5
    K = 20
    # (pi_g, t_b, horizon)
    EPISODES = ((0.6, 2.5, 2000), (0.6, 2.5, 7000), (0.3, 8.0, 2000), (0.3, 8.0, 4000))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.output = workdir / "learn_long.jsonl"

    def round(self, r: int) -> list:
        return [
            (pi_g, t_b, horizon, derived_seed(self.seed, 2, r, i))
            for i, (pi_g, t_b, horizon) in enumerate(self.EPISODES)
        ]

    def argv(self, op) -> list[str]:
        pi_g, t_b, horizon, episode_seed = op
        return [
            "learn", "--pi-g", repr(pi_g), "--t-b", repr(t_b),
            "--r0", "10", "--r1", "10", "--gamma", repr(GAMMA),
            "--k", str(self.K), "--horizon", str(horizon), "--episodes", "1",
            "--seed", str(episode_seed), "--output", str(self.output),
        ]

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(op))
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result) -> Outcome:
        _, _, horizon, _ = op
        code, out, err = result
        # the digest must not depend on where this run keeps its files
        out = out.replace(str(self.output), "OUTPUT")
        if code != 0:
            # the last stderr line is the CLI's error; warnings before it
            # are printed only once per process
            lines = err.strip().splitlines()
            last = lines[-1] if lines else "(no stderr)"
            return Outcome(ok=False, work=0.0, output=f"{code}\n{out}{last}\n".encode(), error=f"exit {code}: {last}")
        data = self.output.read_bytes()
        output = out.encode() + data
        records = [json.loads(line) for line in data.decode().splitlines()]
        if len(records) != horizon:
            return _wrong(f"{len(records)} trace records for horizon {horizon}", output)
        printed = None
        for line in out.splitlines():
            if line.startswith("episode 0 total_discounted_reward "):
                printed = float(line.split()[-1])
        if printed is None:
            return _wrong("no total_discounted_reward line on stdout", output)
        total, discount = 0.0, 1.0
        for rec in records:
            total += discount * rec["reward"]
            discount *= GAMMA
        if not math.isclose(total, printed, rel_tol=1e-12, abs_tol=1e-9):
            return _wrong(f"trace rewards sum to {total!r}, stdout says {printed!r}", output)
        counts = [rec["hypothesis_count"] for rec in records]
        if max(counts) > 2 * self.K:
            return _wrong(f"{max(counts)} hypotheses exceed 2k = {2 * self.K}", output)
        return _ok(horizon, output, hypotheses=sum(counts), records=len(counts), jsonl_bytes=len(data))

    def close(self) -> None:
        self.output.unlink(missing_ok=True)


class KnownTable(Workload):
    """``build_lookup_table`` over the standard grid, one reward setting per op."""

    name = "known_table"
    unit = "cells"
    trace_rounds = 50
    SPOT_CHECKS = 4

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(derived_seed(seed, 3)).permutation(len(REWARD_SETTINGS))
        self.ops = [(int(i), derived_seed(seed, 3, int(i))) for i in order]
        self.n_valid = len(valid_grid_chains())

    def execute(self, op):
        return threshold.build_lookup_table(PI_G_AXIS, T_B_AXIS, REWARD_SETTINGS[op[0]])

    def check(self, op, table) -> Outcome:
        i, spot_seed = op
        cfg = REWARD_SETTINGS[i]
        output = json.dumps(table.to_json_dict(), sort_keys=True).encode()
        cells = table.cells
        if len(cells) != len(PI_G_AXIS) * len(T_B_AXIS):
            return _wrong(f"{len(cells)} cells", output)
        valid = [c for c in cells if c.valid]
        if len(valid) != self.n_valid or any(c.policy is None for c in valid):
            return _wrong(f"{len(valid)} valid cells, expected {self.n_valid}", output)
        rng = np.random.default_rng(spot_seed)
        for j in rng.choice(len(valid), size=self.SPOT_CHECKS, replace=False):
            cell = valid[int(j)]
            direct, _ = threshold.optimal_sleep_time(GEParams(p=cell.p, q=cell.q), cfg)
            if direct != cell.policy:
                return _wrong(f"cell ({cell.pi_g}, {cell.t_b}): {cell.policy} != {direct}", output)
        return _ok(len(cells), output)


class KnownVI(Workload):
    """Alpha-vector value iteration at epsilon 1e-6 on a fixed subset of
    the 1008 valid (cell, reward) pairs; the seed only orders them."""

    name = "known_vi"
    unit = "solves"
    trace_rounds = 3
    STRIDE = 42  # 24 of the 1008 pairs, 8 per reward setting
    SETTINGS = VISettings(epsilon=1e-6)

    def __init__(self, seed: int, workdir: Path):
        chains = valid_grid_chains()
        pairs = [(params, i) for i in range(len(REWARD_SETTINGS)) for params in chains]
        pairs = pairs[:: self.STRIDE]
        order = np.random.default_rng(derived_seed(seed, 4)).permutation(len(pairs))
        self.ops = [pairs[int(i)] for i in order]

    def execute(self, op):
        params, i = op
        return threshold.vi_threshold_policy(params, REWARD_SETTINGS[i], self.SETTINGS)

    def check(self, op, result) -> Outcome:
        """The VI-implied sleep count must match the closed form, up to
        the one-slot value ties acceptance criterion 1 allows."""
        params, i = op
        cfg = REWARD_SETTINGS[i]
        via_vi, bbar = result
        output = f"{params.p!r} {params.q!r} {i} {via_vi.label()} {bbar!r}\n".encode()
        direct, value = threshold.optimal_sleep_time(params, cfg)
        if direct == via_vi:
            return _ok(1, output)
        where = f"p={params.p!r} q={params.q!r} reward {i}: closed form {direct.label()}, VI {via_vi.label()}"
        if direct.never_harvest or via_vi.never_harvest:
            return _wrong(where, output)
        if abs(direct.sleep_slots - via_vi.sleep_slots) > 1:
            return _wrong(where, output)
        tie = abs(value.v_good - threshold.policy_value_linear_system(via_vi.sleep_slots, params, cfg).v_good)
        if tie >= 1e-6:
            return _wrong(f"{where}, value gap {tie}", output)
        return _ok(1, output)


class KnownBattery(Workload):
    """``sweep_initial_levels`` at (pi_g, t_b) = (0.7, 5) over a capacity
    ladder; the dense (I - Q) block at capacity 2000 is 128 MB."""

    name = "known_battery"
    unit = "transient_states"
    trace_rounds = 2
    LADDER = (500, 1000, 2000)
    LEVELS = 16

    def __init__(self, seed: int, workdir: Path):
        self.params = from_burst_parameterization(pi_g=0.7, t_b=5.0)
        self.policy, _ = threshold.optimal_sleep_time(self.params, SYMMETRIC)
        rng = np.random.default_rng(derived_seed(seed, 5))
        self.ops = [
            (cap, sorted({0, cap, *(int(x) for x in rng.integers(0, cap + 1, self.LEVELS))}))
            for cap in self.LADDER
        ]

    def execute(self, op):
        cap, levels = op
        return battery.sweep_initial_levels(
            self.params, self.policy, battery.BatteryConfig(capacity=cap), levels
        )

    def check(self, op, rows) -> Outcome:
        cap, levels = op
        stream = io.StringIO()
        battery.write_sweep_csv(rows, stream)
        output = f"capacity {cap}\n{stream.getvalue()}".encode()
        if [row["initial_level"] for row in rows] != levels:
            return _wrong(f"rows do not match the {len(levels)} requested levels", output)
        for row in rows:
            total = row["full_charge_prob"] + row["depletion_prob"]
            if not abs(total - 1.0) <= 1e-9:
                return _wrong(f"capacity {cap} level {row['initial_level']}: probabilities sum to {total!r}", output)
        return _ok(2 * (cap - 1), output)


class KnownMC(Workload):
    """Vectorized Monte-Carlo value of the optimal sleep-n policy on the
    repository's three reference chains, checked against the closed form.

    The Monte-Carlo seeds are fixed per chain, so the 3-standard-error
    check (a 0.27% false-alarm rate per fresh draw) gives the same
    verdict on every run; the run seed only orders the chains.
    """

    name = "known_mc"
    unit = "episode_slots"
    trace_rounds = 5
    CHAINS = ((0.6, 2.5), (0.7, 5.0), (0.3, 8.0))
    EPISODES = 20_000
    HORIZON = 1000

    def __init__(self, seed: int, workdir: Path):
        cells = []
        for j, (pi_g, t_b) in enumerate(self.CHAINS):
            params = from_burst_parameterization(pi_g=pi_g, t_b=t_b)
            policy, value = threshold.optimal_sleep_time(params, SYMMETRIC)
            cells.append((params, policy.sleep_slots, value.v_good, 1 + j))
        order = np.random.default_rng(derived_seed(seed, 6)).permutation(len(cells))
        self.ops = [cells[int(i)] for i in order]

    def execute(self, op):
        params, n, _, mc_seed = op
        return harness.mc_policy_value(
            params, SYMMETRIC, sleep_slots=n, episodes=self.EPISODES, horizon=self.HORIZON, seed=mc_seed
        )

    def check(self, op, result) -> Outcome:
        params, n, v_good, _ = op
        mean, se = result
        output = f"{params.p!r} {params.q!r} {n} {mean!r} {se!r}\n".encode()
        if not (math.isfinite(mean) and se > 0.0 and abs(mean - v_good) <= 3.0 * se):
            return _wrong(f"p={params.p!r} q={params.q!r} n={n}: mc {mean!r} se {se!r}, closed form {v_good!r}", output)
        return _ok(self.EPISODES * self.HORIZON, output)


WORKLOADS = {w.name: w for w in (Compare, LearnLong, KnownTable, KnownVI, KnownBattery, KnownMC)}
