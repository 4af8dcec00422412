"""Smoke test of the benchmark harness: every workload at a tiny size.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import functools
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@functools.lru_cache(maxsize=None)
def tiny_run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)], tiny=True)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(workload, trace, section):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[section]}


def test_traced_layers_stay_apart():
    points = tiny_run("points_claims", 1)["metrics"]
    layer_self = {k: m["value"] for k, m in points.items()
                  if k.endswith(".self_s") and k.count(".") == 2}
    assert max(layer_self, key=layer_self.get) == "linalg.span_insert.self_s"
    assert not any(m["value"] for k, m in points.items()
                   if k.endswith(".calls") and k.startswith(("strata.", "kronecker.")))
    strata = tiny_run("strata_tables", 1)["metrics"]
    assert strata["strata.dim_audit.calls"]["value"] > 0
    assert not any(m["value"] for k, m in strata.items()
                   if k.endswith(".calls") and k.startswith("points."))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_counts_as_failed(workload):
    sys.path.insert(0, str(run.SRC))
    items = workloads.BUILDERS[workload](run.load_package(), random.Random(1), True)
    items[0].expect = ("deliberately", "wrong")
    tally = run.Tally()
    run.run_round(items, tally, reference=True)
    assert (tally.attempted, tally.failed) == (len(items), 1)
    assert run.informational(tally)["failed_ratio"]["value"] == 1 / len(items)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", WORKLOADS[0], "--seconds", "0"], tiny=True) != 0
    assert capsys.readouterr().out == ""
