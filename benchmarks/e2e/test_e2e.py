"""Smoke tests for the end-to-end benchmark, on ``--scale smoke`` inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    DECLARED = json.load(_f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

#: The workload each layer dominates, and the span names it must emit
#: there (the layer -> workload map of the README).
DOMINANT = {
    "frontend": ("warmup", ["frontend"]),
    "interp": ("warmup", ["interp.call", "interp.run"]),
    "staging": ("csv", ["staging"]),
    "fusion": ("optiml", ["fusion"]),
    "passes": ("warmup", ["passes", "pass.gvn", "pass.range", "pass.dce"]),
    "codegen": ("csv", ["codegen"]),
    "baseline": ("warmup", ["baseline"]),
    "generated": ("csv", ["generated"]),
    "deopt": ("speculate", ["deopt", "recompile"]),
    "tracing": ("speculate", ["tracing.close"]),
    "unit_cache": ("warmup", ["unit_cache"]),
    "codecache": ("warm_start", ["codecache.fingerprint", "codecache.load",
                                 "codecache.store"]),
    "server": ("warm_start", ["server.submit", "server.drain",
                              "server.coordinate"]),
    "delite": ("optiml", ["delite"]),
}

#: Layers that must do no work at all on the given workloads.
ABSENT = {
    "delite.launches": ("csv", "warmup", "speculate", "warm_start"),
    "codecache.loads": ("csv", "optiml", "warmup", "speculate"),
    "server.submits": ("csv", "optiml", "warmup", "speculate"),
    "tracing.recordings": ("csv", "optiml", "warmup", "warm_start"),
}


def _run(*args, cwd=ROOT):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         "--scale", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, time.perf_counter() - t0


def _printed(stdout, name, unit):
    """Whether a human-readable line reports ``name`` in ``unit``."""
    return any(line.split()[:1] == [name] and unit in line.split()
               for line in stdout.splitlines())


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload: result and spans by name."""
    out = {}
    for workload in WORKLOADS:
        proc, _seconds = _run("--workload", workload, "--trace")
        assert proc.returncode == 0, proc.stderr
        path = os.path.join(HERE, "out", workload + ".spans.json")
        with open(path, encoding="utf-8") as f:
            spans = json.load(f)["spans"]
        out[workload] = (proc.stdout, json.loads(proc.stdout.splitlines()[-1]),
                         {span[1] for span in spans})
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc, seconds = _run("--workload", workload)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 3.0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == \
        sorted(m["name"] for m in DECLARED["end_to_end"])
    for m in DECLARED["end_to_end"]:
        assert result["metrics"][m["name"]] == {
            "value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        assert result["metrics"][m["name"]]["value"] > 0
        assert _printed(proc.stdout, m["name"], m["unit"])


def test_corrupted_result_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "cpp_baseline",
                        lambda lines, keys: [-1, -1])
    doc = workloads.run_workload("csv", seed=0, seconds=0.1, scale="smoke")
    assert not doc["correct"]
    assert 0 < doc["failed"] < doc["attempted"]
    assert "want [-1, -1]" in doc["failures"][0]


def test_raised_call_is_counted():
    run = workloads.Run("csv", 0, 0.0, workloads.PLANS["smoke"]["csv"])
    got = run.call(lambda: 1 // 0)
    run.expect(got, 0, "division")
    assert (run.attempted, run.failed) == (1, 1)


def test_per_layer_metrics_printed_with_units(traced):
    for workload, (stdout, result, _spans) in traced.items():
        assert result["correct"], workload
        assert sorted(result["metrics"]) == \
            sorted(m["name"] for m in DECLARED["per_layer"])
        for m in DECLARED["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert _printed(stdout, m["name"], m["unit"]), m["name"]


@pytest.mark.parametrize("layer", sorted(DOMINANT))
def test_layer_spans_on_dominant_workload(traced, layer):
    workload, names = DOMINANT[layer]
    _stdout, _result, spans = traced[workload]
    for name in names:
        assert name in spans, (layer, workload, name)


@pytest.mark.parametrize("metric", sorted(ABSENT))
def test_absent_layers_do_no_work(traced, metric):
    for workload in ABSENT[metric]:
        _stdout, result, _spans = traced[workload]
        assert result["metrics"][metric]["value"] == 0, (metric, workload)


def test_fails_without_the_program(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark's own
    files has nothing to measure: exit nonzero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _seconds = _run("--workload", "csv", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
