"""Every name a module exports must exist in it and have a caller.

A caller is a reference from the package itself, outside the name's own
definition and its ``__all__`` entry, or one from ``scripts/`` or
``perfbench/``; tests do not count. The search is textual, so a name
that only its own docstring or messages mention still passes: this is a
backstop against API that only tests reach, not a proof that every name
is used.
"""

import ast
import csv
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    "rfharvest.battery",
    "rfharvest.beliefs",
    "rfharvest.gilbert_elliott",
    "rfharvest.harness",
    "rfharvest.learning",
    "rfharvest.threshold",
    "rfharvest.value_iteration",
]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

_ALL_BLOCK = re.compile(r"^__all__ = \[.*?\]$", re.M | re.S)
PACKAGE_TEXT = "\n".join(
    _ALL_BLOCK.sub("", path.read_text())
    for path in sorted((ROOT / "src" / "rfharvest").glob("*.py"))
)
OUTSIDE_TEXT = "\n".join(
    path.read_text() for folder in ("scripts", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))
)


def has_caller(name: str) -> bool:
    uses = len(re.findall(rf"\b{name}\b", PACKAGE_TEXT))
    definitions = len(re.findall(rf"^(?:def|class) {name}\b", PACKAGE_TEXT, re.M))
    return uses > definitions or re.search(rf"\b{name}\b", OUTSIDE_TEXT) is not None


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller_outside_tests(name):
    module = importlib.import_module(name)
    unused = [attr for attr in module.__all__ if not has_caller(attr)]
    assert not unused, f"{name}.__all__ names that only tests reach: {unused}"


def test_no_unused_imports_in_src():
    # every top-level import of a module must be read in it, so a name
    # has one import path: the module that defines it
    unused = []
    for path in sorted((ROOT / "src" / "rfharvest").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{path.stem}.{bound}")
    assert not unused, f"imports that nothing in their module reads: {unused}"


def test_value_iteration_alone_reads_the_greedy_policy():
    # solve returns its crossover and sleep count, so no other module
    # turns a value function into them
    imported: dict[str, dict[str, set[str]]] = {}
    for path in sorted((ROOT / "src" / "rfharvest").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module:
                names = imported.setdefault(path.stem, {}).setdefault(node.module, set())
                names.update(alias.name for alias in node.names)
    assert imported["threshold"]["value_iteration"] == {"solve", "VISettings"}
    readers = sorted(
        module
        for module, sources in imported.items()
        for names in sources.values()
        if names & {"_sleep_count", "harvest_crossover"}
    )
    assert readers == ["value_iteration"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_runs(script):
    # importing a name the package no longer has fails here, before any work
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_battery_sweep_skips_a_never_harvest_burst_length(tmp_path):
    # at pi_g 0.3, burst length 5 has a never-harvest optimum and so no
    # battery chain; burst length 20 sleeps 7
    script = ROOT / "scripts" / "battery_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--pi-g", "0.3", "--burst-lengths", "5,20", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "burst length 5.0: sleep count never\n" in proc.stdout
    assert "burst length 20.0: sleep count 7\n" in proc.stdout
    rows = list(csv.DictReader((tmp_path / "battery_absorption.csv").read_text().splitlines()))
    assert rows and {row["burst_length"] for row in rows} == {"20.0"}


def test_traced_layer_metrics_are_never_null(monkeypatch):
    # the benchmark's tracer reads null for any traced function, method
    # or probed result attribute that has gone; one small call of each
    # probed layer runs every probe
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    from rfharvest import battery, harness, threshold, value_iteration
    from rfharvest.beliefs import RewardConfig
    from rfharvest.gilbert_elliott import from_burst_parameterization

    params = from_burst_parameterization(0.7, 5.0)
    cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
    policy, _ = threshold.optimal_sleep_time(params, cfg)
    spans = tracer.Tracer()
    with spans.patch():
        spans.enabled = True
        value_iteration.solve(params, cfg)
        battery.sweep_initial_levels(params, policy, battery.BatteryConfig(capacity=20), [0, 10, 20])
        harness.mc_policy_value(params, cfg, policy.sleep_slots, episodes=10, horizon=50, seed=0)
    assert spans.names, "no traced call was recorded"
    metrics = tracer.layer_metrics(spans, {}, 0.0)
    assert [name for name, value in metrics.items() if value is None] == []
