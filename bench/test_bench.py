"""Fast self-check of the benchmark's own code (about ten seconds).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import fput2d.harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SRC = BENCH_DIR.parent / "src"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# a strain run small enough to take well under a second
TINY = workloads.Workload(
    "tiny", "single",
    {"variant": "strain", "box_length": 8.0, "grid_side": 64, "t0": 0.05,
     "sample_count": 3},
    eps=0.2,
)


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _reference(value):
    return {"seed": workloads.DEFAULT_SEED, "rel_tol": 0.01,
            "max_sup_error": {"tiny": {"0.2": value}}}


def test_failure_rate_counts_rejected_operations(tmp_path):
    good = workloads.run(TINY, 2026, 0, True, tmp_path, SRC, _reference(1.0))
    # the first operation is untraced, the second traced: at least two ran
    assert good["result"]["attempted"] >= 2
    measured = good["operations"][0]["max_sup_error"][0]
    wrong = workloads.run(TINY, 2026, 0, True, tmp_path, SRC, _reference(2 * measured))
    assert wrong["result"]["failed"] == wrong["result"]["attempted"] >= 2
    assert wrong["failure_rate"] == 1.0 and not wrong["result"]["correct"]
    right = workloads.run(TINY, 2026, 0, True, tmp_path, SRC, _reference(measured))
    assert right["result"]["failed"] == 0 and right["result"]["correct"]
    assert set(right["result"]["metrics"]) == set(workloads.PER_LAYER)


def test_raising_operation_counts_as_failed(tmp_path):
    broken = dataclasses.replace(TINY, plan={**TINY.plan, "envelope_kind": "bogus"})
    out = workloads.run(broken, 2026, 0, True, tmp_path, SRC, _reference(1.0))
    assert out["result"]["failed"] == out["result"]["attempted"]


def test_non_finite_values_are_rejected():
    assert list(workloads.non_finite({"a": [1.0, float("nan")], "b": None})) == ["$.a[1]"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_reaches_plan_seed(name):
    w = workloads.WORKLOADS[name]
    assert workloads.build_plan(w, 7).seed == 7
    assert workloads.build_plan(w, 7).workers == 2
    assert workloads.plan_kwargs(w, 7)["seed"] == 7


def test_reference_applies_at_every_seed():
    w = workloads.WORKLOADS["strain_eps0.2"]
    record = {"eps": 0.2, "max_sup_error": 1.0, "error_over_eps2": 1.0}
    ref = {"seed": 2026, "rel_tol": 0.01, "max_sup_error": {w.name: {"0.2": 2.0}}}
    assert workloads.check(w, workloads.build_plan(w, 7), record, [record], ref)
    record["max_sup_error"] = 2.0
    assert workloads.check(w, workloads.build_plan(w, 7), record, [record], ref) == []


def test_self_time_subtracts_union_of_parallel_children():
    spans = [
        (1, None, 0, "harness.run_sweep", 0, 100, 1),
        (2, 1, 0, "harness.run_single", 10, 60, 2),
        (3, 1, 0, "harness.run_single", 20, 90, 3),
        (4, 2, 0, "nls.evolve", 10, 30, 2),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(20e-9)
    assert st[2] == pytest.approx(30e-9)
    assert st[4] == pytest.approx(20e-9)


def test_recording_restores_the_program(tmp_path):
    original = fput2d.harness.integrate
    tracer = Tracer(tmp_path)
    with tracer.recording(0):
        assert fput2d.harness.integrate is not original
    assert fput2d.harness.integrate is original


def test_end_to_end_metrics_are_all_reported(tmp_path):
    out = workloads.run(TINY, 2026, 0, False, tmp_path, SRC, _reference(1.0))
    metrics = out["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == workloads.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(out["setup_s_samples"]) == workloads.SETUP_REPEATS
