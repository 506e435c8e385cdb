"""Tests of the benchmark itself, at small sizes.

Run from the repository root with
``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

from bench.__main__ import summary
from bench.compare import compare
from bench.harness import ROOT, load_spec, measure
from bench.trace import self_times
from bench.workloads import Figure2, Jeddc, StandingQuery, Table2, relabel

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def small(name: str, seed: int = 3):
    """Each workload at a size that runs in seconds."""
    if name == "table2":
        return Table2(seed, presets=("javac-s", "compress"))
    if name == "figure2":
        return Figure2(seed, n_classes=40)
    if name == "jeddc":
        return Jeddc(seed)
    w = StandingQuery(seed, program="javac-s")
    w.SETUPS = 1
    return w


@pytest.fixture(scope="module")
def traced_runs():
    """One traced single-round run of every workload, twice."""
    names = [w["name"] for w in SPEC["workloads"]]
    return {
        name: [measure(small(name), 1.0, True, rounds=1) for _ in range(2)]
        for name in names
    }


def test_spec_names_are_well_formed():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_metric_is_emitted(traced_runs):
    for name, (doc, _) in traced_runs.items():
        assert doc["failed"] == 0, doc["errors"]
        for m in SPEC["end_to_end"]:
            assert doc["metrics"][m["name"]]["unit"] == m["unit"]
            assert doc["metrics"][m["name"]]["value"] > 0, (name, m["name"])
        missing = {m["name"] for m in SPEC["per_layer"]} - set(doc["layers"])
        assert not missing, (name, missing)
        kinds = {"standing-query": {"lookup", "read", "update"},
                 "table2": {"javac-s", "compress"},
                 "jeddc": {"table1-hierarchy", "example-pointsto"},
                 }.get(name, set())
        assert {k + "_latency_refs" for k in kinds} <= set(doc["metrics"]), name
        for key in list(doc["metrics"]) + list(doc["detail"]) + list(doc["layers"]):
            assert NAME.match(key), key
        plain = summary([doc], SPEC, 0)
        traced = summary([doc], SPEC, 1)
        assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_layer_self_times_add_up_to_the_traced_wall(traced_runs):
    for name, (doc, _) in traced_runs.items():
        table = doc["table"]
        assert table["fold_error_pct"] <= 5.0, name
        total = sum(doc["layers"][f"{layer}.self_pct"]
                    for layer in table["self_s_per_round"])
        assert total == pytest.approx(100.0, abs=5.0), name


def test_kernel_and_compiler_counters_repeat_exactly(traced_runs):
    for name, (first, second) in traced_runs.items():
        if name == "standing-query":
            continue  # its counters depend on how many ops fit the budget
        counters = {k: v for k, v in first["layers"].items()
                    if k.startswith(("bdd.", "sat.", "jedd."))
                    and not k.endswith("_pct")}
        assert counters, name
        again = {k: second["layers"][k] for k in counters}
        assert counters == again, name
    assert traced_runs["figure2"][0]["layers"]["bdd.kernel_work"] > 0
    assert traced_runs["jeddc"][0]["layers"]["sat.clauses"] > 0
    assert traced_runs["jeddc"][0]["layers"]["bdd.kernel_work"] == 0


def test_self_time_fold_on_nested_spans():
    spans = [
        (0.0, 10.0, "bench.round", "bench"),
        (1.0, 9.0, "analyses.pointsto", "analyses"),
        (2.0, 4.0, "relation.join", "relation"),
        (2.5, 3.5, "bdd.match", "kernel"),
        (5.0, 8.0, "relation.compose", "relation"),
        (6.0, 7.0, "bdd.replace", "kernel"),
        # recorded after the fact, enclosing the join it timed
        (1.5, 4.5, "plan.explain", "planner"),
    ]
    assert self_times(spans) == pytest.approx({
        "bench": 2.0, "analyses": 2.0, "planner": 1.0,
        "relations": 3.0, "bdd": 2.0,
    })


def _doc(value: float, **kinds: float) -> dict:
    metrics = {m["name"]: {"value": value, "unit": m["unit"], "n": 1}
               for m in SPEC["end_to_end"]}
    for kind, latency in kinds.items():
        metrics[f"{kind}_latency_refs"] = {"value": latency, "unit": "refs",
                                       "n": 1}
    return {"seed": 0, "seconds": SPEC["run_seconds"], "trace": 0,
            "runs": [{"workload": "table2", "attempted": 10, "failed": 0,
                      "metrics": metrics}]}


def test_compare_passes_identical_results_and_fails_a_2x_regression():
    base = _doc(100.0)
    rows, regressed = compare(base, copy.deepcopy(base), SPEC)
    assert not regressed
    assert {r[-1] for r in rows} == {"ok"}
    for m in SPEC["end_to_end"]:
        new = copy.deepcopy(base)
        factor = 2.0 if m["better"] == "lower" else 0.5
        new["runs"][0]["metrics"][m["name"]]["value"] *= factor
        rows, regressed = compare(base, new, SPEC)
        assert regressed, m["name"]
    new = copy.deepcopy(base)
    new["runs"][0]["failed"] = 1
    assert compare(base, new, SPEC)[1]


def test_compare_gates_each_kind_of_op():
    # lookups twice as slow, updates twice as fast: the geometric mean
    # over kinds holds still, the lookups must not
    base = _doc(100.0, lookup=20.0, update=5.0)
    new = _doc(100.0, lookup=40.0, update=2.5)
    rows, regressed = compare(base, new, SPEC)
    assert regressed
    status = {r[1]: r[-1] for r in rows}
    assert status["lookup_latency_refs"] == "REGRESSION"
    assert status["update_latency_refs"] == "better"
    assert status["latency_refs"] == "ok"
    # a kind reported on one side only cannot pass
    assert compare(base, _doc(100.0, lookup=20.0), SPEC)[1]


def test_compare_cli_exit_codes(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_doc(100.0)))
    new.write_text(json.dumps(_doc(100.0)))
    cmd = [sys.executable, "-m", "bench", "compare", str(base), str(new)]
    assert subprocess.run(cmd, cwd=ROOT, capture_output=True).returncode == 0
    new.write_text(json.dumps(_doc(200.0)))
    assert subprocess.run(cmd, cwd=ROOT, capture_output=True).returncode == 1
    for key, other in (("seed", 1), ("seconds", 5), ("trace", 1)):
        new.write_text(json.dumps(dict(_doc(100.0), **{key: other})))
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        assert proc.returncode == 1, key
        assert "cannot compare" in proc.stdout, key


def test_run_measures_for_run_seconds_only():
    cmd = [sys.executable, "-m", "bench", "run", "--workload", "jeddc",
           "--seconds", str(SPEC["run_seconds"] + 1)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "run_seconds" in proc.stderr


def test_relabel_keeps_the_facts():
    from repro.analyses import preset

    facts = preset("javac-s")
    assert relabel(facts, 0) is facts
    moved = relabel(facts, 5)
    assert moved.variables != facts.variables
    for attr in ("classes", "variables", "allocs", "virtual_calls", "methods"):
        assert sorted(getattr(moved, attr)) == sorted(getattr(facts, attr))
    assert relabel(facts, 5) == moved
