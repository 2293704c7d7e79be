"""Every workload at a small size: counts repeat, every metric is emitted.

    python3 -m pytest benchmarks/test_bench.py

Runs each workload traced twice with one seed and untraced once, for
one op per half, on a 3000-click log and an MLP 8-8 trained for three
epochs.
"""

from __future__ import annotations

import math

import pytest

import run
from workloads import WORKLOADS, Scale

# The README's damping and sq tolerance do not solve this barely trained
# small MLP; these do, on every workload.
SMALL = Scale(n=3000, feature_dim=5, hidden_dims=(8, 8), max_epochs=3,
              damping=0.3, sq_tol=0.5)
SPEC = run._load_spec()


def _small(name: str, trace: bool) -> dict:
    result = run.run_workload(name, seed=1, seconds=0.01, trace=trace,
                              scale=SMALL)
    assert result["result"]["correct"], result["problems"]
    assert result["result"]["failed"] == 0
    return result["result"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_every_layer_metric_is_emitted(name):
    first, second = _small(name, True), _small(name, True)
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
        assert all(math.isfinite(v["value"])
                   for v in result["metrics"].values())
    counts = [k for k, unit in listed.items() if unit == run.COUNT_UNIT]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = _small(name, False)
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(v["value"] > 0 and math.isfinite(v["value"])
               for v in result["metrics"].values())
