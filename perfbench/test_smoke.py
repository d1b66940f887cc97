"""Smoke test of the benchmark harness: the same code path at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json

import pytest

import run
import worker

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, size="smoke") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 2)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())


@pytest.mark.parametrize("corrupt_op, failed", [(1, 1), (0, 2)])
def test_a_corrupted_artifact_counts_as_a_failed_op(corrupt_op, failed,
                                                    tmp_path, monkeypatch):
    """Op 1 corrupted fails its check; op 0 corrupted also fails the
    byte-identical rerun."""
    execute = worker.execute

    def corrupting(wl, op):
        out = execute(wl, op)
        if op == corrupt_op and wl.dir.name == "ops" and not corrupted:
            wl.artifacts()[0].write_text("{ not json")
            corrupted.append(op)
        return out

    corrupted = []
    monkeypatch.setattr(worker, "execute", corrupting)
    result_path = tmp_path / "result.json"
    worker.main(["--workload", "joule", "--seed", "5", "--seconds", "1",
                 "--size", "smoke", "--workdir", str(tmp_path / "w"),
                 "--result", str(result_path)])
    result = json.loads(result_path.read_text())
    assert result["attempted"] >= 3
    assert result["failed"] == failed
    assert result["problems"][0].startswith(f"op {corrupt_op}: ")
