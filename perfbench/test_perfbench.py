"""The benchmark's own tests, at smoke size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs untraced and the traced run once; the tests check that
every metric ``BENCHMARK.json`` names is emitted with its unit and that
the correctness checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from common import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(process) -> dict:
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def _check(result: dict, metrics: "list[dict]") -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in metrics:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_workload_emits_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0", "--size", "smoke"))
    _check(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    result = _result(_run("--workload", "stream-upsert", "--seed", "3",
                          "--seconds", "1", "--trace", "1", "--size", "smoke"))
    _check(result, SPEC["per_layer"])
    assert set(result["metrics"]) == set(LAYERS["per_layer"])


def test_spec_and_layer_map_agree():
    workloads = set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= workloads
    assert {m["name"] for m in SPEC["per_layer"]} == set(LAYERS["per_layer"])
    for metric in SPEC["per_layer"]:
        described = LAYERS["per_layer"][metric["name"]]
        assert described["unit"] == metric["unit"]
        assert described["workload"] in workloads
    for metric in SPEC["end_to_end"]:
        described = LAYERS["end_to_end"][metric["name"]]
        assert described["unit"] == metric["unit"]
        assert set(described) - {"unit"} == workloads


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _run("--workload", "batch-metablock", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout.strip() == ""


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    own = tracer.self_times()
    assert 0.015 < own["outer"] < 0.03
    assert own["inner"] >= 0.03


def test_patch_restores_the_original():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.patch(Layer, "work", "layer.work", lambda r: tracer.count("n", r))
    assert Layer().work(1) == 2
    tracer.restore()
    assert Layer.__dict__["work"] is original
    assert tracer.counts == {"n": 2}
    assert [span["name"] for span in tracer.dump()] == ["layer.work"]


def test_compare_refuses_differing_stamps(tmp_path, capsys):
    stamp = {"cpu_count": 2, "affinity": [0, 1], "commit": "a", "seed": 1}
    metrics = {"graph_s": {"value": 1.0, "unit": "s"}}
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"stamp": stamp, "metrics": metrics}))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(
        {"stamp": {**stamp, "commit": "b", "seed": 2}, "metrics": metrics}
    ))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(
        {"stamp": {**stamp, "cpu_count": 1}, "metrics": metrics}
    ))
    assert compare.main(["--base", str(base), "--new", str(same)]) == 0
    assert compare.main(["--base", str(base), "--new", str(other)]) == 2
    assert "cpu_count" in capsys.readouterr().out
