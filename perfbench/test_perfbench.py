"""Tests of the benchmark harness itself, at smoke sizes (a few seconds).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import self_times  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.fixture(scope="module")
def smoke() -> dict[int, dict]:
    """Result lines of a plain (0) and a traced (1) smoke run of every workload."""
    results = {}
    for trace in (0, 1):
        proc = _bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("trace", [0, 1], ids=["plain", "traced"])
def test_every_metric_is_emitted_with_its_unit(smoke, trace):
    result = smoke[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(run.WORKLOAD_NAMES)
    specs = [(name, unit) for name, unit, *_ in (run.PER_LAYER if trace else run.END_TO_END)]
    expected = {f"{w}.{name}": unit for w in run.WORKLOAD_NAMES for name, unit in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(m) for m in run.PER_LAYER]


def _span_files() -> list[Path]:
    return [HERE / "results" / f"{w}-seed0-trace1-smoke-spans.jsonl" for w in run.WORKLOAD_NAMES]


def test_span_tree_invariants(smoke):
    assert smoke[1]["correct"]
    for path in _span_files():
        jobs: dict[str, list[dict]] = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            jobs.setdefault(rec["job"], []).append(rec)
        assert jobs, path
        for spans in jobs.values():
            assert [s["span"] for s in spans] == list(range(len(spans)))
            assert spans[0]["name"] == "job" and spans[0]["parent"] == -1
            parents = np.array([s["parent"] for s in spans])
            starts = np.array([s["start"] for s in spans])
            ends = np.array([s["end"] for s in spans])
            inner = parents >= 0
            assert np.all(parents[inner] < np.nonzero(inner)[0]), "parents precede children"
            assert np.all(starts[inner] >= starts[parents[inner]]), "child starts inside its parent"
            assert np.all(ends[inner] <= ends[parents[inner]]), "child ends inside its parent"
            own = self_times(parents, ends - starts)
            assert np.all(own >= 0.0)
            assert own.sum() == pytest.approx(ends[0] - starts[0], rel=1e-9, abs=1e-12)


def test_tracer_patches_every_binding_and_restores_it():
    run._import_program()
    from planar_mk import cli, optimizer, variational

    import spans

    originals = (variational.objective_pass, variational.euler_lagrange_residual)
    tracer = spans.Tracer()
    with tracer.job("probe"):
        assert optimizer.objective_pass is variational.objective_pass
        assert optimizer.objective_pass.__wrapped__ is originals[0]
        assert cli.euler_lagrange_residual is optimizer.euler_lagrange_residual
        assert cli.euler_lagrange_residual.__wrapped__ is originals[1]
    assert (variational.objective_pass, variational.euler_lagrange_residual) == originals
    assert optimizer.objective_pass is originals[0] and cli.euler_lagrange_residual is originals[1]
    assert not hasattr(variational.objective_pass, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _bench("--workload", "solve16", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
