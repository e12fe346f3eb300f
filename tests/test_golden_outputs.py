"""Byte-identity of seeded outputs across versions of the code.

The evaluate digest and the (0.3, 8) learner digests below were
recorded from the learner as it stood before its hypothesis filter and
episode loop were rewritten. The (0.6, 2.5) learner digests were
recorded after the sleep-count scan began to break exact value ties
toward the smaller count: the first plan of each of those runs is for
the estimates (2/9, 1/2), where sleeping 0 and 1 slots are worth the
same, and it now sleeps 0 slots where it slept 1. The solve digests were
recorded after the span-rule loop gained policy-iteration steps: the
loop now backs up exact policy values, not the plain iterates, so it
stops after a few backups (2-4 here, 29-255 before) and prints other
iterations and values within epsilon of the old ones. The never-harvest
case is solved exactly by its first backup, which takes no policy step,
so it kept its digest through this change and the span rule before
it. The other three solve digests were recorded again when the policy
steps began to take the policy's values from the closed form in
``beliefs`` instead of a 2x2 solve over sleep-transformed basis lines:
the iterations and sleep counts stayed, and the values and crossover
moved in their last digits. The battery
digests were recorded when the level recursion began to stop at its
coefficients' fixed point, with a closed-form tail above it, and to
take the slot counts from the chain conditioned on full charge: the
values moved in their last digits (by at most 1.3e-13 relative where
they were normal), as they had when the level recursion replaced the
banded elimination sweep before it. The
table digests were recorded from the sleep-count scan that ran once
per cell, before it scanned a grid row in one batch. The (10, 10) and
(1, 10) table digests were recorded again when a "never" cell began to
report v_good = max(0, y), the value of harvesting on from the
post-success belief until the first failure, instead of 0; only those
cells' v_good moved. The deep-sharing evaluate digest (3 paths x 40
runs) was recorded from the harness that still stepped every run on
its own, before the runs of a path began to share one filter; it pins
runs that part late, deep into the horizon. Rerunning one
version twice (acceptance criterion 8) cannot catch a change to the
random draws or to the floating-point operations; these can. A change
that alters them on purpose must say so and record new digests.
"""

import hashlib
import io

import pytest

from rfharvest import cli
from rfharvest.beliefs import RewardConfig
from rfharvest.gilbert_elliott import from_burst_parameterization
from rfharvest.harness import ExperimentSpec, PolicyDef, evaluate, write_result_json
from rfharvest.threshold import build_lookup_table

CFG = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)

# (pi_g, t_b, k, horizon) -> sha256 of `rfharvest learn ... --seed 7` JSONL
LEARN_DIGESTS = {
    (0.6, 2.5, 5, 120): "c6ece9baa336cc214cd450818188ece24777ced89f25a0abdb3db56b06c352f6",
    (0.6, 2.5, 5, 2000): "e656fe6653d6c08b22602adbab027af1390d83218502b40f0c64890e4acf15de",
    (0.6, 2.5, 20, 120): "c2812f9d8ec6ea5cd89773a32ea8f9a4af61dd48cf10ba8bf361802d6e65318a",
    (0.6, 2.5, 20, 2000): "377d7908947aed4fab58b305e4e0417bee5f778320eac1f805fc980ef7e1e741",
    (0.3, 8.0, 5, 120): "008f802d588f0f857c77b3f7476c9e587745f1d5caf5d6fe3c15a50c3bae1346",
    (0.3, 8.0, 5, 2000): "bc877417082086d9f5a0450e1069ae37b0dfa82ae110d6f9eb52b9ccc8731d87",
    (0.3, 8.0, 20, 120): "e6b2ed7655d493e84267955529ad874e7ff2eda8752d6b590f3537207c71da04",
    (0.3, 8.0, 20, 2000): "a49b8a903487cb29c2d21f92125d4faf2ff7ffc8b832121b548cb27bb7850ea4",
}

# (chain flags, r1) -> sha256 of `rfharvest solve ... --r0 10 --epsilon 1e-4` stdout
SOLVE_DIGESTS = {
    ("--pi-g 0.6 --t-b 2.5", 10): "3cab786cf2387ecd3571db47d727e07c17ca82cc5fd4ccd1d202d312e6544cc7",
    ("--pi-g 0.6 --t-b 2.5", 1): "35de2a2ab994543702d8a1eace7473b8bde3226e9e4cd55688c36c23fe739f49",
    ("--p 0.0026 --q 0.05", 10): "d9dc115ebabb8a64adb667f0f49f339f5a403c13b46321922bf0a4912f9dbc11",
    ("--p 0.0026 --q 0.05", 1): "0001dd948a81d4368a35b42f4257bb65f481c5beb20d165fbd56d0d149336cd2",
}

# (capacity, level step) -> sha256 of `rfharvest battery --pi-g 0.7 --t-b 5
# --r0 10 --r1 10 --gamma 0.99` CSV; (50, 10) is the README command
BATTERY_DIGESTS = {
    (50, 10): "5e64e45efc0dd2812678ba25356e19b8f84effc924296ddba6417c7a4949f98c",
    (2000, 100): "23abe8908f1d2368269a260429cccd4714afdd22acce0088c08b6c3f0fb2c0f3",
}

# (r1, r0, format) -> sha256 of `rfharvest table ... --gamma 0.99` on the
# standard grid; the JSON cells pin every v_good to its last bit
TABLE_DIGESTS = {
    (10, 1, "csv"): "a04594fec63e63a5ed639332ee4345238d5401d130d073a3d1f51c3e0771db54",
    (10, 1, "json"): "f265b522fa4ce95d2bd5f2f239c0c1e6905f17ee9dccb86d1112277e0325d1b7",
    (10, 10, "csv"): "530fb7abadd5fffe051504fb38c9f93c52bf353b1f7ae7439bea5f8baa9dd8b8",
    (10, 10, "json"): "b325296613aba54e6d6686f0a952995d8dfe96c681f71103e1727048fcf7f938",
    (1, 10, "csv"): "1dd0df56786f92715a24ee31f03dd870757ed3c73fb699eb2f81e3cd7da95b8c",
    (1, 10, "json"): "0efdb504ca6365a1e96ccfe5680da99e25cf3e645d6980ccfc21fa73416e121d",
}

# the four desk policies on the reference chain, 2 paths x 2 runs, base seed 3
EVALUATE_DIGEST = "b3ce94ee0d923ee90cd8d386e9d4a0e531b8a6463a4f1595a4e3a59cf65228fd"
# the same policies, 3 paths x 40 runs, base seed 5
DEEP_SHARING_DIGEST = "a77a26e53531993c1d7152f986bed051f13e56943dc35d5c377242d46d3e66a5"


@pytest.mark.parametrize("pi_g,t_b,k,horizon", sorted(LEARN_DIGESTS))
def test_learn_jsonl_digest(tmp_path, pi_g, t_b, k, horizon):
    out = tmp_path / "trace.jsonl"
    code = cli.main(
        [
            "learn", "--pi-g", repr(pi_g), "--t-b", repr(t_b), "--r0", "10", "--r1", "10",
            "--gamma", "0.99", "--k", str(k), "--horizon", str(horizon), "--seed", "7",
            "--output", str(out),
        ]
    )
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == LEARN_DIGESTS[(pi_g, t_b, k, horizon)]


@pytest.mark.parametrize("chain,r1", sorted(SOLVE_DIGESTS))
def test_solve_stdout_digest(capsys, chain, r1):
    argv = ["solve", *chain.split(), "--r0", "10", "--r1", str(r1), "--epsilon", "1e-4"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SOLVE_DIGESTS[(chain, r1)]


@pytest.mark.parametrize("capacity,step", sorted(BATTERY_DIGESTS))
def test_battery_csv_digest(tmp_path, capacity, step):
    out = tmp_path / "battery.csv"
    code = cli.main(
        [
            "battery", "--pi-g", "0.7", "--t-b", "5", "--r0", "10", "--r1", "10",
            "--gamma", "0.99", "--capacity", str(capacity), "--level-step", str(step),
            "--output", str(out),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BATTERY_DIGESTS[(capacity, step)]


@pytest.mark.parametrize("r1,r0,fmt", sorted(TABLE_DIGESTS))
def test_table_digest(tmp_path, r1, r0, fmt):
    out = tmp_path / f"table.{fmt}"
    code = cli.main(
        [
            "table", "--r1", str(r1), "--r0", str(r0), "--gamma", "0.99",
            "--format", fmt, "--output", str(out),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_DIGESTS[(r1, r0, fmt)]


def desk_policies_digest(paths, runs_per_path, base_seed):
    """sha256 of the JSON result of the four desk policies on the reference chain."""
    table = build_lookup_table(
        [0.05 + 0.9 * i / 19 for i in range(20)], [1.1 + 18.9 * i / 19 for i in range(20)], CFG
    )
    opts = {"table": table}
    spec = ExperimentSpec(
        params=from_burst_parameterization(0.6, 2.5),
        cfg=CFG,
        horizon=500,
        paths=paths,
        runs_per_path=runs_per_path,
        base_seed=base_seed,
        policies=(
            PolicyDef("bayes_learner", {"k": 20, **opts}),
            PolicyDef("impoverished_posterior", dict(opts)),
            PolicyDef("random_sampling", dict(opts)),
            PolicyDef("always_harvest"),
        ),
    )
    buf = io.StringIO()
    write_result_json(evaluate(spec), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_evaluate_json_digest():
    assert desk_policies_digest(paths=2, runs_per_path=2, base_seed=3) == EVALUATE_DIGEST


def test_evaluate_json_digest_with_deep_sharing():
    # 40 runs of one path part at many depths of the horizon
    assert desk_policies_digest(paths=3, runs_per_path=40, base_seed=5) == DEEP_SHARING_DIGEST
