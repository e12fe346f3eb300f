"""CLI tests: flag validation, output determinism, library equivalence."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rfharvest import cli, harness
from rfharvest.beliefs import RewardConfig
from rfharvest.gilbert_elliott import from_burst_parameterization
from rfharvest.threshold import LookupTable, build_lookup_table, optimal_sleep_time


def run_cli(argv, capsys):
    """Exit code, stdout and stderr of ``cli.main(argv)``. pytest records
    warnings instead of printing them, so each one raised in the command
    comes back at the head of stderr, formatted as a process prints it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line) for w in caught)
    return code, captured.out, shown + captured.err


class TestValidation:
    def test_gamma_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(
            ["policy", "--pi-g", "0.6", "--t-b", "2.5", "--gamma", "1.0"], capsys
        )
        assert code == 2
        assert "gamma" in err and "[0, 1)" in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["policy", "--pi-g", "0.6", "--t-b", "2.5", "--r1", "inf"], "r1"),
            (["policy", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "nan"], "r0"),
            (["policy", "--pi-g", "0.6", "--t-b", "2.5", "--gamma", "nan"], "gamma"),
            (["policy", "--pi-g", "0.6", "--t-b", "inf"], "t_b"),
            (["solve", "--pi-g", "0.6", "--t-b", "2.5", "--epsilon", "0"], "epsilon"),
            (["solve", "--pi-g", "0.6", "--t-b", "2.5", "--max-iterations", "0"], "max_iterations"),
            (["battery", "--pi-g", "0.7", "--t-b", "5", "--capacity", "1", "--output", "OUT"], "capacity"),
            (["table", "--pi-g-min", "0", "--output", "OUT"], "pi_g"),
            # integers past int64, which an int64 level column cannot hold
            (["battery", "--pi-g", "0.7", "--t-b", "5", "--capacity", "10",
              "--levels", "3,99999999999999999999", "--output", "OUT"], "levels"),
            (["battery", "--pi-g", "0.7", "--t-b", "5", "--capacity", "10",
              "--levels", "3,-99999999999999999999", "--output", "OUT"], "levels"),
            (["battery", "--pi-g", "0.7", "--t-b", "5", "--capacity", "9223372036854775808",
              "--level-step", "4611686018427387904", "--output", "OUT"], "capacity"),
            # no object takes the seed before work starts: its flag refuses it
            (["learn", "--pi-g", "0.6", "--t-b", "2.5", "--horizon", "10", "--seed", "-1",
              "--output", "OUT"], "--seed"),
            (["compare", "--seed", "-1", "--output", "OUT"], "--seed"),
        ],
    )
    def test_flag_outside_its_domain_exits_2(self, tmp_path, capsys, argv, field):
        # the object a flag builds states its domain; its message names the field
        argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--seed", "x"],
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--k", "x"],
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--horizon", "1.5"],
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--episodes", "x"],
            ["compare", "--seed", "x"],
            ["compare", "--k", "x"],
            ["battery", "--pi-g", "0.7", "--t-b", "5", "--level-step", "x"],
        ],
    )
    def test_non_integer_count_names_the_type(self, tmp_path, capsys, argv):
        # argparse names the flag's type function when int() fails inside it
        out_path = tmp_path / "out"
        code, out, err = run_cli([*argv, "--output", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert f"expected an integer, got {argv[-1]!r}" in err
        assert "_seed" not in err and "_positive_int" not in err
        assert not out_path.exists()

    def test_conflicting_parameterizations_rejected(self, capsys):
        code, _, err = run_cli(
            ["policy", "--p", "0.2", "--q", "0.3", "--pi-g", "0.6", "--t-b", "2.5"], capsys
        )
        assert code == 2
        assert "not both" in err

    def test_missing_chain_parameters_rejected(self, capsys):
        code, _, err = run_cli(["policy"], capsys)
        assert code == 2

    def test_invalid_chain_rejected(self, capsys):
        code, _, err = run_cli(["policy", "--p", "0.7", "--q", "0.4"], capsys)
        assert code == 2
        assert "1 - p > q" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--capacity", "1"],
            ["--levels", "3,11"],
            ["--levels", "3,x"],
            ["--sleep-slots", "-1"],
            ["--levels", "3,99999999999999999999"],
            ["--levels", "3,-99999999999999999999"],
            ["--capacity", "9223372036854775808", "--level-step", "4611686018427387904"],
            ["--levels", ""],
            ["--levels", ","],
            ["--levels", "1,,2"],
        ],
    )
    def test_invalid_battery_flags_exit_2(self, tmp_path, capsys, flags):
        argv = ["battery", "--pi-g", "0.7", "--t-b", "5", "--capacity", "10", *flags,
                "--output", str(tmp_path / "b.csv")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "b.csv").exists()
        if flags[0] == "--levels" and flags[1] in ("3,x", "", ",", "1,,2"):
            assert "--levels takes comma-separated integers" in err

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # the learner's float weights overflow on this run (the known
        # defect pinned by test_long_run_survives_weight_overflow): a
        # runtime failure, not a usage error
        code, _, err = run_cli(
            ["learn", "--pi-g", "0.3", "--t-b", "8", "--r0", "10", "--r1", "10", "--k", "20",
             "--horizon", "6000", "--seed", "1", "--output", str(tmp_path / "trace.jsonl")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: Probabilities do not sum to 1")
        assert err.count("\n") == 1  # no numpy warnings

    def test_solver_budget_exits_1(self, capsys):
        # a solve that runs out of iterations is a runtime failure that
        # names the span stopping rule it could not meet
        code, out, err = run_cli(
            ["solve", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99", "--max-iterations", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: stopping rule not met after 1 iterations")
        assert "span bound gamma/(1-gamma)*(max d - min d)" in err
        assert "epsilon 1.000e-03" in err

    def test_help_lists_subcommands(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("solve", "policy", "table", "battery", "learn", "compare"):
            assert sub in out


class TestPolicyCommand:
    def test_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            ["policy", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99"],
            capsys,
        )
        assert code == 0
        params = from_burst_parameterization(0.6, 2.5)
        policy, value = optimal_sleep_time(params, RewardConfig(r1=10, r0=10, gamma=0.99))
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert lines["sleep_slots"] == policy.label()
        assert lines["value_after_success"] == repr(value.v_good)

    def test_values_past_the_float_range_exit_1(self, capsys):
        # the values are about 25 r here, past the largest double
        code, out, err = run_cli(["policy", "--pi-g", "0.6", "--t-b", "2.5", "--r1", "1e308", "--r0", "1e308"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: policy values of (p, q)") and "float range" in err
        assert err.count("\n") == 1  # no numpy warnings

    @pytest.mark.parametrize("p,q", [("1e-308", "1e-308"), ("0.5", "5e-324"), ("1e-300", "1e-300"), ("0.5", "1e-310")])
    def test_chains_at_the_float_floor_never_harvest(self, capsys, p, q):
        code, out, err = run_cli(["policy", "--p", p, "--q", q], capsys)
        assert (code, err) == (0, "")
        assert "sleep_slots never\n" in out

    def test_values_near_the_float_range_print(self, capsys):
        code, out, _ = run_cli(["policy", "--pi-g", "0.6", "--t-b", "2.5", "--r1", "1e306", "--r0", "1e306"], capsys)
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert all(math.isfinite(float(lines[key])) for key in ("value_after_success", "value_at_wakeup"))


class TestSolveCommand:
    def test_reports_crossover_and_sleep(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99", "--epsilon", "1e-4"],
            capsys,
        )
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert lines["sleep_slots"] == "1"
        assert 0.4 < float(lines["crossover_belief"]) < 0.6


class TestTableCommand:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["table", "--pi-g-min", "0.3", "--pi-g-max", "0.7", "--pi-g-steps", "3",
                "--t-b-min", "2", "--t-b-max", "6", "--t-b-steps", "3",
                "--r0", "1", "--r1", "10", "--gamma", "0.99"]
        assert run_cli(argv + ["--output", str(out_a)], capsys)[0] == 0
        assert run_cli(argv + ["--output", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert len(lines) == 10  # header + 3x3 cells

    def test_json_output_matches_library(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        argv = ["table", "--pi-g-min", "0.3", "--pi-g-max", "0.7", "--pi-g-steps", "2",
                "--t-b-min", "2", "--t-b-max", "4", "--t-b-steps", "2",
                "--r0", "1", "--r1", "10", "--gamma", "0.99",
                "--output", str(out), "--format", "json"]
        assert run_cli(argv, capsys)[0] == 0
        with open(out) as fh:
            loaded = LookupTable.load_json(fh)
        direct = build_lookup_table([0.3, 0.7], [2.0, 4.0], RewardConfig(r1=10, r0=1, gamma=0.99))
        assert loaded == direct

    def test_values_past_the_float_range_exit_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        argv = ["table", "--r1", "1e308", "--r0", "1e308", "--format", "json", "--output", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert stdout == ""
        assert "float range" in err and err.count("\n") == 1
        assert not out.exists()

    def test_burst_length_at_the_float_floor(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["table", "--t-b-min", "1e308", "--t-b-steps", "1", "--pi-g-steps", "2", "--output", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        assert [row.split(",")[4] for row in out.read_text().splitlines()[1:]] == ["never", "never"]

    def test_infinite_burst_length_exits_2(self, tmp_path, capsys):
        # "t_b": Infinity would not be JSON
        out = tmp_path / "t.json"
        argv = ["table", "--t-b-min", "inf", "--t-b-max", "inf", "--t-b-steps", "1", "--format", "json",
                "--output", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err == "error: t_b must be a finite number above 1, got inf\n"
        assert not out.exists()

    def test_default_grid_is_the_comparison_table(self, tmp_path, capsys, monkeypatch):
        # the table the learning comparison plans from, read off its spec
        # without running the episodes
        monkeypatch.setattr(harness, "evaluate", lambda spec: spec)
        spec = harness.learning_comparison("desk")
        planned = io.StringIO()
        spec.policies[0].options["table"].dump_json(planned)
        out = tmp_path / "t.json"
        argv = ["table", "--r0", "10", "--r1", "10", "--format", "json", "--output", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        assert out.read_bytes() == planned.getvalue().encode()


class TestBatteryCommand:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "battery.csv"
        code, _, _ = run_cli(
            ["battery", "--pi-g", "0.7", "--t-b", "5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99", "--capacity", "20", "--level-step", "5",
             "--output", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("initial_level,")
        assert len(lines) == 6  # header + levels 0,5,10,15,20

    def test_success_probability_rounding_to_one(self, tmp_path, capsys):
        # 1 - p rounds to 1.0 at p = 1e-17; the chain is still well posed
        out = tmp_path / "battery.csv"
        code, _, _ = run_cli(
            ["battery", "--p", "1e-17", "--q", "0.5", "--r0", "10", "--r1", "10",
             "--capacity", "10", "--level-step", "1", "--output", str(out)],
            capsys,
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 11
        for row in rows:
            _, _, full, dep, _ = row.split(",")
            assert abs(float(full) + float(dep) - 1.0) <= 1e-12, row

    def test_byte_identical_to_library_serialization(self, tmp_path, capsys):
        from rfharvest.battery import BatteryConfig, sweep_initial_levels, write_sweep_csv

        out = tmp_path / "battery.csv"
        code, _, _ = run_cli(
            ["battery", "--pi-g", "0.7", "--t-b", "5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99", "--capacity", "20", "--level-step", "5",
             "--output", str(out)],
            capsys,
        )
        assert code == 0
        params = from_burst_parameterization(0.7, 5.0)
        policy, _ = optimal_sleep_time(params, RewardConfig(r1=10, r0=10, gamma=0.99))
        rows = sweep_initial_levels(params, policy, BatteryConfig(capacity=20), [0, 5, 10, 15, 20])
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        assert out.read_text() == buf.getvalue()

    def test_never_harvest_optimum_exits_1_without_output(self, tmp_path, capsys):
        # a never-harvest policy induces no battery chain to analyse
        out = tmp_path / "battery.csv"
        code, stdout, err = run_cli(
            ["battery", "--pi-g", "0.3", "--t-b", "5", "--r0", "10", "--r1", "10", "--output", str(out)],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err == "error: optimal policy never harvests, give --sleep-slots explicitly\n"
        assert not out.exists()

    def test_wake_up_belief_underflow_exits_1(self, tmp_path, capsys):
        # valid flags whose wake-up belief (about 2e-324) rounds to 0.0:
        # a runtime limit, not a usage error
        out = tmp_path / "battery.csv"
        code, stdout, err = run_cli(
            ["battery", "--p", "1e-162", "--q", "1e-162", "--sleep-slots", "0", "--capacity", "10",
             "--output", str(out)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: the wake-up belief after 0 sleep slots") and "underflows" in err
        assert not out.exists()

    def test_values_past_the_float_range_exit_1(self, tmp_path, capsys):
        out = tmp_path / "battery.csv"
        code, stdout, err = run_cli(
            ["battery", "--pi-g", "0.6", "--t-b", "2.5", "--r1", "1e308", "--r0", "1e308", "--output", str(out)],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: policy values of (p, q)") and "float range" in err
        assert err.count("\n") == 1  # no numpy warnings
        assert not out.exists()


# malformed table document -> the message `learn --table` must exit 2 with
MALFORMED_TABLE_ERRORS = {
    "missing_cells": "table document lacks cells",
    "short_cells": "cells must be a list of 3 x 3 = 9 cells",
    "null_policy": "policy of valid cell",
    "top_level_list": "not a sleep lookup table document",
    "reversed_pi_g_axis": "pi_g_axis must be nonempty and strictly ascending",
    "fractional_sleep_slots": "has sleep_slots 2.7, not a nonnegative integer",
    "bool_sleep_slots": "has sleep_slots True, not a nonnegative integer",
    "string_sleep_slots": "has sleep_slots '3', not a nonnegative integer",
    "negative_sleep_slots": "has sleep_slots -1, not a nonnegative integer",
    "int_never_harvest": "has never_harvest 1, not true or false",
    "string_valid": "cell 0 has valid 'no', not true or false",
    "zero_valid": "cell 3 has valid 0, not true or false",
    "one_valid": "cell 3 has valid 1, not true or false",
    "infeasible_valid": "cell 0 has valid true, but (p, q) = (0.7499999999999999, 0.5) is not a valid chain",
    "feasible_invalid": "cell 3 has valid false, but (p, q) = (0.33333333333333337, 0.5) is a valid chain",
    "string_p": "cell 3 has p 'x', not a finite number",
    "bool_q": "cell 3 has q True, not a finite number",
    "infinite_q": "cell 3 has q inf, not a finite number",
    "list_v_good": "cell 3 has v_good [1], not a finite number",
    "null_v_good": "cell 3 has v_good None, not a finite number",
    "infinite_v_good": "cell 3 has v_good inf, not a finite number",
    "nan_v_good": "cell 3 has v_good nan, not a finite number",
    "v_good_on_invalid": "cell 0 has v_good 1.0, not null",
    "gamma_above_one": "gamma must lie in [0, 1), got 1.5",
    "string_r1": "reward has r1 'x', not a number",
    "infinite_r0": "r0 must be positive and finite, got inf",
    "p_off_its_pair": "cell 3 has (p, q) = (0.2, 0.5), not (0.33333333333333337, 0.5), the pair its (pi_g, t_b) give",
    "pi_g_axis_above_one": "pi_g must lie strictly inside (0, 1), got 1.5",
    "string_t_b_axis": "cell 0 has t_b '2.0', not a finite number",
}
# fault -> (reward field, value)
REWARD_FIELD_FAULTS = {
    "gamma_above_one": ("gamma", 1.5),
    "string_r1": ("r1", "x"),
    "infinite_r0": ("r0", math.inf),
}
# fault -> (policy field, value) set on the first valid cell that harvests
POLICY_FIELD_FAULTS = {
    "fractional_sleep_slots": ("sleep_slots", 2.7),
    "bool_sleep_slots": ("sleep_slots", True),
    "string_sleep_slots": ("sleep_slots", "3"),
    "negative_sleep_slots": ("sleep_slots", -1),
    "int_never_harvest": ("never_harvest", 1),
}
# fault -> (cell index, fields set on that cell); cell 0, the infeasible
# (pi_g 0.4, t_b 2.0), is invalid and cell 3 valid
CELL_FIELD_FAULTS = {
    "string_valid": (0, {"valid": "no"}),
    "zero_valid": (3, {"valid": 0}),
    "one_valid": (3, {"valid": 1}),
    "infeasible_valid": (0, {"valid": True, "policy": {"never_harvest": False, "sleep_slots": 1}, "v_good": 1.0}),
    "feasible_invalid": (3, {"valid": False, "policy": None, "v_good": None}),
    "string_p": (3, {"p": "x"}),
    "bool_q": (3, {"q": True}),
    "infinite_q": (3, {"q": math.inf}),
    "list_v_good": (3, {"v_good": [1]}),
    "null_v_good": (3, {"v_good": None}),
    "infinite_v_good": (3, {"v_good": math.inf}),
    "nan_v_good": (3, {"v_good": math.nan}),
    "v_good_on_invalid": (0, {"v_good": 1.0}),
    "p_off_its_pair": (3, {"p": 0.2}),  # a valid chain, but not (0.6, 2.0)'s
}


class TestLearnCommand:
    def test_consumes_json_lookup_table(self, tmp_path, capsys):
        table = build_lookup_table(
            [0.4, 0.6, 0.8], [2.0, 4.0, 8.0], RewardConfig(r1=10, r0=10, gamma=0.99)
        )
        table_path = tmp_path / "table.json"
        with open(table_path, "w") as fh:
            table.dump_json(fh)
        out = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99", "--k", "5", "--horizon", "60", "--seed", "2",
             "--table", str(table_path), "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 60

    @pytest.mark.parametrize("fault", sorted(MALFORMED_TABLE_ERRORS))
    def test_malformed_table_exits_2(self, tmp_path, capsys, fault):
        doc = build_lookup_table(
            [0.4, 0.6, 0.8], [2.0, 4.0, 8.0], RewardConfig(r1=10, r0=10, gamma=0.99)
        ).to_json_dict()
        if fault == "missing_cells":
            del doc["cells"]
        elif fault == "short_cells":
            doc["cells"] = doc["cells"][:-1]
        elif fault == "null_policy":
            next(c for c in doc["cells"] if c["valid"])["policy"] = None
        elif fault == "top_level_list":
            doc = [doc]
        elif fault == "pi_g_axis_above_one":
            doc["pi_g_axis"][-1] = 1.5  # and its cells, so each follows its axis pair
            for c in doc["cells"][6:]:
                c["pi_g"] = 1.5
        elif fault == "string_t_b_axis":  # strings ascend too, so only the cells' types refuse them
            doc["t_b_axis"] = [str(t_b) for t_b in doc["t_b_axis"]]
            for c in doc["cells"]:
                c["t_b"] = str(c["t_b"])
        elif fault in CELL_FIELD_FAULTS:
            index, fields = CELL_FIELD_FAULTS[fault]
            doc["cells"][index].update(fields)
        elif fault in REWARD_FIELD_FAULTS:
            key, value = REWARD_FIELD_FAULTS[fault]
            doc["reward"][key] = value
        elif fault in POLICY_FIELD_FAULTS:
            key, value = POLICY_FIELD_FAULTS[fault]
            next(c for c in doc["cells"] if c["valid"] and not c["policy"]["never_harvest"])["policy"][key] = value
        else:
            doc["pi_g_axis"].reverse()
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--gamma", "0.99", "--k", "5", "--horizon", "60", "--seed", "2",
             "--table", str(table_path), "--output", str(tmp_path / "trace.jsonl")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and MALFORMED_TABLE_ERRORS[fault] in err

    def test_table_for_another_reward_exits_2(self, tmp_path, capsys):
        table = build_lookup_table(
            [0.4, 0.6, 0.8], [2.0, 4.0, 8.0], RewardConfig(r1=10, r0=10, gamma=0.99)
        )
        table_path = tmp_path / "table.json"
        with open(table_path, "w") as fh:
            table.dump_json(fh)
        code, _, err = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "1", "--r1", "10",
             "--gamma", "0.99", "--k", "5", "--horizon", "60", "--seed", "2",
             "--table", str(table_path), "--output", str(tmp_path / "trace.jsonl")],
            capsys,
        )
        assert code == 2
        assert "(10, 10, 0.99)" in err and "(10.0, 1.0, 0.99)" in err

    def test_trace_file_deterministic(self, tmp_path, capsys):
        files = []
        for name in ("t1.jsonl", "t2.jsonl"):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
                 "--gamma", "0.99", "--k", "5", "--horizon", "80", "--seed", "9",
                 "--output", str(out)],
                capsys,
            )
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]
        first = json.loads(files[0].decode().splitlines()[0])
        assert first["action"] == "harvest"

    def test_values_past_the_float_range_exit_1(self, tmp_path, capsys):
        code, stdout, err = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r1", "1e308", "--r0", "1e308",
             "--horizon", "50", "--output", str(tmp_path / "trace.jsonl")],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: policy values of (p, q)") and "float range" in err
        assert err.count("\n") == 1  # no numpy warnings
        assert list(tmp_path.iterdir()) == []  # no trace file, no temporary one

    def test_failure_leaves_an_earlier_output_untouched(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        out.write_text("earlier run\n")
        code, _, _ = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r1", "1e308", "--r0", "1e308",
             "--horizon", "50", "--output", str(out)],
            capsys,
        )
        assert code == 1
        assert out.read_text() == "earlier run\n"
        assert list(tmp_path.iterdir()) == [out]
        code, _, _ = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--horizon", "20", "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 20
        assert list(tmp_path.iterdir()) == [out]

    def test_output_that_is_not_a_regular_file_is_written_directly(self, capsys):
        # a device such as /dev/null (or /dev/stdout) cannot be replaced
        # by a file moved beside it, so it is opened as given
        code, out, _ = run_cli(
            ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
             "--horizon", "20", "--output", os.devnull],
            capsys,
        )
        assert code == 0 and out.endswith(f"wrote {os.devnull}\n")
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


class TestCompareCommand:
    def test_reports_paired_gap_over_always_harvest(self, tmp_path, capsys, monkeypatch):
        spec = harness.ExperimentSpec(
            params=from_burst_parameterization(0.6, 2.5),
            cfg=RewardConfig(r1=10.0, r0=10.0, gamma=0.99),
            horizon=500,
            paths=3,
            runs_per_path=2,
            base_seed=0,
            policies=(harness.PolicyDef("bayes_learner", {"k": 4}), harness.PolicyDef("always_harvest")),
        )
        monkeypatch.setattr(harness, "learning_comparison", lambda **kwargs: harness.evaluate(spec))
        out = tmp_path / "r.json"
        code, stdout, _ = run_cli(["compare", "--output", str(out), "--format", "json"], capsys)
        assert code == 0
        learner, always = (np.array(p["path_means"]) for p in json.loads(out.read_text())["policies"])
        diffs = learner - always
        words = stdout.splitlines()[-2].split()
        assert words[:4] == ["paired_gap", "bayes_learner(k=4)", "over", "always_harvest"]
        assert words[4] == "mean" and float(words[5]) == pytest.approx(diffs.mean(), rel=1e-12)
        assert words[6] == "se" and float(words[7]) == pytest.approx(diffs.std(ddof=1) / np.sqrt(3), rel=1e-12)


class TestConfigFile:
    @pytest.mark.parametrize("spell", [lambda path: ["--config", path], lambda path: [f"--config={path}"]],
                             ids=["separate", "equals"])
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys, spell):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pi_g": 0.6, "t_b": 2.5, "r0": 10, "r1": 10, "gamma": 0.99}))
        code, out, _ = run_cli(["policy", *spell(str(config))], capsys)
        assert code == 0
        assert dict(l.split(" ", 1) for l in out.strip().splitlines())["sleep_slots"] == "1"
        # flag wins over the config value
        code, out2, _ = run_cli(
            ["policy", *spell(str(config)), "--t-b", "8"], capsys
        )
        assert code == 0
        assert float(dict(l.split(" ", 1) for l in out2.strip().splitlines())["q"]) == pytest.approx(1 / 8)

    @pytest.mark.parametrize("spell", [lambda path: ["--config", path], lambda path: [f"--config={path}"]],
                             ids=["separate", "equals"])
    def test_config_before_the_subcommand(self, tmp_path, capsys, spell):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pi_g": 0.6, "t_b": 2.5, "r0": 10, "r1": 10, "gamma": 0.99}))
        code, out, _ = run_cli([*spell(str(config)), "policy"], capsys)
        assert code == 0
        assert dict(l.split(" ", 1) for l in out.strip().splitlines())["sleep_slots"] == "1"

    @pytest.mark.parametrize("spell", [lambda path: ["--conf", path], lambda path: [f"--conf={path}"]],
                             ids=["separate", "equals"])
    def test_abbreviated_config_is_a_usage_error(self, tmp_path, capsys, spell):
        # a prefix of --config would parse but never be read
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pi_g": 0.6, "t_b": 2.5}))
        code, out, err = run_cli([*spell(str(config)), "policy"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: rfharvest") and "chain parameters required" not in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rfharvest.cli", "policy", "--pi-g", "0.6", "--t-b", "2.5",
         "--r0", "10", "--r1", "10", "--gamma", "0.99"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sleep_slots 1" in proc.stdout


def test_readme_examples_execute(tmp_path, capsys):
    """Every rfharvest command line shown in the README must run."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    if not readme.exists():
        pytest.skip("README not written yet")
    commands = []
    for line in readme.read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("rfharvest "):
            commands.append(stripped[len("rfharvest "):])
    assert commands, "README should show CLI examples"
    for command in commands:
        argv = command.replace("OUT_DIR", str(tmp_path)).split()
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 0, command
