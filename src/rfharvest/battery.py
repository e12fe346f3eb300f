"""Battery dynamics under a sleep-after-failure policy.

The policy only touches the battery at harvest instants, so the
process is embedded there: the state is (phase, level) where the
phase records whether the last harvest succeeded. From a post-success
state the next harvest happens one slot later and succeeds with the
one-step probability of staying good; from a post-failure state the
node sleeps N slots first, so N+1 slots elapse and the success
probability is the (N+1)-step transition from bad to good. Levels 0
and capacity are absorbing (a dead battery cannot power the radio; a
full one stops accumulating).

Absorption probabilities come from the fundamental-matrix method:
with Q the transient block and h the full-charge hit probabilities,
(I - Q) h = R_full. Expected slots to full charge, conditional on
getting there, solve (I - Q) y = h * w with y = h * T, where w is the
per-transition slot cost (1 or N+1 by phase).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .gilbert_elliott import GEParams, stationary
from .threshold import ThresholdPolicy

__all__ = [
    "BatteryConfig",
    "BatteryChain",
    "AbsorptionResult",
    "PolicyNeverHarvests",
    "SingularTransientBlock",
    "build_chain",
    "build_chain_from_success_probs",
    "absorption_analysis",
    "simulate_chain",
    "sweep_initial_levels",
    "write_sweep_csv",
]

SWEEP_CSV_HEADER = (
    "initial_level",
    "burst_length",
    "full_charge_prob",
    "depletion_prob",
    "expected_slots_conditional",
)


class PolicyNeverHarvests(ValueError):
    """A never-harvest policy induces no battery chain."""


class SingularTransientBlock(RuntimeError):
    """The (I - Q) solve failed; the chain is not properly absorbing."""


@dataclass(frozen=True)
class BatteryConfig:
    """Integer-unit battery: capacity, per-success gain, per-failure loss."""

    capacity: int
    gain: int = 1
    loss: int = 1

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2 units")
        if self.gain < 1 or self.loss < 1:
            raise ValueError("gain and loss must be at least 1 unit")


@dataclass(frozen=True)
class BatteryChain:
    """Embedded chain at harvest instants.

    Transient states are (phase, level) for levels 1..capacity-1 with
    phase 0 = last harvest succeeded, phase 1 = last harvest failed.
    ``transient`` maps transient states to transient states, ``absorbing``
    to the two absorbing classes (column 0 depleted, column 1 full), and
    ``slot_weights`` gives the slots consumed by one transition out of
    each transient state.
    """

    battery: BatteryConfig
    sleep_slots: int
    success_after_success: float
    success_after_failure: float
    transient: np.ndarray
    absorbing: np.ndarray
    slot_weights: np.ndarray

    @property
    def n_transient(self) -> int:
        return 2 * (self.battery.capacity - 1)


def build_chain_from_success_probs(
    success_after_success: float,
    success_after_failure: float,
    sleep_slots: int,
    battery: BatteryConfig,
) -> BatteryChain:
    """Assemble the embedded chain from raw per-phase success probabilities.

    This is the degenerate-friendly entry point: it accepts any success
    probabilities in (0, 1), including the memoryless case where both
    phases succeed equally, which has a gambler's-ruin closed form.
    """
    for s in (success_after_success, success_after_failure):
        if not 0.0 < s < 1.0:
            raise ValueError(f"success probabilities must lie in (0, 1), got {s}")
    if sleep_slots < 0:
        raise ValueError("sleep_slots must be nonnegative")
    cap = battery.capacity
    m = cap - 1
    n = 2 * m
    transient = np.zeros((n, n))
    absorbing = np.zeros((n, 2))
    weights = np.empty(n)
    succ = (success_after_success, success_after_failure)
    for phase in (0, 1):
        weights[phase * m : (phase + 1) * m] = 1.0 if phase == 0 else sleep_slots + 1.0
        for level in range(1, cap):
            i = phase * m + (level - 1)
            s = succ[phase]
            up = level + battery.gain
            down = level - battery.loss
            if up >= cap:
                absorbing[i, 1] += s
            else:
                transient[i, 0 * m + (up - 1)] += s
            if down <= 0:
                absorbing[i, 0] += 1.0 - s
            else:
                transient[i, 1 * m + (down - 1)] += 1.0 - s
    return BatteryChain(
        battery=battery,
        sleep_slots=sleep_slots,
        success_after_success=success_after_success,
        success_after_failure=success_after_failure,
        transient=transient,
        absorbing=absorbing,
        slot_weights=weights,
    )


def build_chain(
    params: GEParams, policy: ThresholdPolicy, battery: BatteryConfig
) -> BatteryChain:
    """Embedded battery chain induced by a sleep-after-failure policy."""
    if policy.never_harvest:
        raise PolicyNeverHarvests("a never-harvest policy induces no battery chain")
    n = policy.sleep_slots
    m_power = np.linalg.matrix_power(params.transition_matrix(), n + 1)
    return build_chain_from_success_probs(
        success_after_success=1.0 - params.p,
        success_after_failure=float(m_power[1, 0]),
        sleep_slots=n,
        battery=battery,
    )


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption quantities per (phase, level), levels 0..capacity.

    ``full_charge_prob[phase, level]`` is the probability of filling the
    battery before depleting it; ``expected_slots_conditional`` is the
    expected slot count to full charge given that it happens (NaN where
    full charge is unreachable, 0 at full charge itself).
    """

    capacity: int
    full_charge_prob: np.ndarray
    depletion_prob: np.ndarray
    expected_slots_conditional: np.ndarray


def absorption_analysis(chain: BatteryChain) -> AbsorptionResult:
    cap = chain.battery.capacity
    m = cap - 1
    eye = np.eye(chain.n_transient)
    a = eye - chain.transient
    try:
        h = np.linalg.solve(a, chain.absorbing[:, 1])
        depl = np.linalg.solve(a, chain.absorbing[:, 0])
        y = np.linalg.solve(a, h * chain.slot_weights)
    except np.linalg.LinAlgError as exc:
        raise SingularTransientBlock("transient block solve failed") from exc
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(y))):
        raise SingularTransientBlock("transient block solve produced non-finite values")

    full = np.zeros((2, cap + 1))
    dep = np.zeros((2, cap + 1))
    slots = np.full((2, cap + 1), np.nan)
    full[:, cap] = 1.0
    dep[:, 0] = 1.0
    slots[:, cap] = 0.0
    for phase in (0, 1):
        seg = slice(phase * m, (phase + 1) * m)
        full[phase, 1:cap] = h[seg]
        dep[phase, 1:cap] = depl[seg]
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(h[seg] > 0.0, y[seg] / h[seg], np.nan)
        slots[phase, 1:cap] = cond
    return AbsorptionResult(
        capacity=cap,
        full_charge_prob=full,
        depletion_prob=dep,
        expected_slots_conditional=slots,
    )


def simulate_chain(
    chain: BatteryChain,
    initial_level: int,
    initial_phase: int,
    episodes: int,
    seed: int,
    max_transitions: int = 2_000_000_000,
) -> tuple[float, float]:
    """Monte-Carlo estimate of (full-charge probability, its std error).

    Episodes run the embedded chain until absorption; used as an
    independent check of the analytic solve.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    cap = chain.battery.capacity
    level = np.full(episodes, initial_level, dtype=np.int64)
    phase = np.full(episodes, initial_phase, dtype=np.int8)
    active = (level > 0) & (level < cap)
    succ = np.array([chain.success_after_success, chain.success_after_failure])
    transitions = 0
    while active.any():
        transitions += int(active.sum())
        if transitions > max_transitions:
            raise RuntimeError("simulation budget exhausted before absorption")
        idx = np.nonzero(active)[0]
        u = rng.random(idx.size)
        ok = u < succ[phase[idx]]
        level[idx] = np.where(
            ok, level[idx] + chain.battery.gain, level[idx] - chain.battery.loss
        )
        phase[idx] = np.where(ok, 0, 1).astype(np.int8)
        np.clip(level, 0, cap, out=level)
        active[idx] = (level[idx] > 0) & (level[idx] < cap)
    hit = (level >= cap).astype(float)
    p_hat = float(hit.mean())
    se = float(hit.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else float("nan")
    return p_hat, se


def sweep_initial_levels(
    params: GEParams,
    policy: ThresholdPolicy,
    battery: BatteryConfig,
    levels: list[int],
) -> list[dict]:
    """Absorption summary rows for the requested initial levels.

    The starting phase is drawn from the stationary distribution, so
    each row mixes the post-success and post-failure entries with
    weights (pi_g, pi_b); the conditional slot count is mixed with the
    phase weights conditioned on reaching full charge.
    """
    cap = battery.capacity
    for level in levels:
        if not 0 <= level <= cap:
            raise ValueError(f"levels must lie in [0, capacity], got {level}")
    chain = build_chain(params, policy, battery)
    res = absorption_analysis(chain)
    pi = stationary(params)
    w = np.array([pi.good, pi.bad])
    rows = []
    for level in levels:
        full = float(w @ res.full_charge_prob[:, level])
        dep = float(w @ res.depletion_prob[:, level])
        if full > 0.0:
            mix = w * res.full_charge_prob[:, level]
            cond = res.expected_slots_conditional[:, level]
            slots = float(np.nansum(mix * cond) / mix.sum())
        else:
            slots = float("nan")
        rows.append(
            {
                "initial_level": level,
                "burst_length": 1.0 / params.q,
                "full_charge_prob": full,
                "depletion_prob": dep,
                "expected_slots_conditional": slots,
            }
        )
    return rows


def write_sweep_csv(rows: list[dict], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row["initial_level"],
                repr(row["burst_length"]),
                repr(row["full_charge_prob"]),
                repr(row["depletion_prob"]),
                repr(row["expected_slots_conditional"]),
            ]
        )
