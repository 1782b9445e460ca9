"""Tests of the end-to-end benchmark itself (not part of the tier-1 suite).

Run from the repository root with ``python -m pytest benchmarks/e2e -q``.
The last two tests start the benchmark as a subprocess and take about
ten seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import E2E_METRICS, ROOT, per_layer_metrics
from tracing import LAYER_NAMES, UNATTRIBUTED, WAIT, bench_layer, module_of, rollup, tail_percentile
from workloads import JOBS, WORKLOADS, metric_seeds, trace_seed

from repro.experiments import preset_seeds, spawn_seeds

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"


def test_every_module_maps_to_one_named_layer():
    modules = [module_of(str(path), SRC) for path in sorted((SRC / "repro").rglob("*.py"))]
    assert modules and None not in modules
    unmapped = [module for module in modules if bench_layer(module) not in LAYER_NAMES]
    assert unmapped == []


def test_unknown_sim_module_has_no_layer():
    assert bench_layer("repro.sim.engine") == "sim.engine"
    assert bench_layer("repro.sim.stats") == "metrics"
    assert bench_layer("repro.experiments.metrics") == "metrics"
    assert bench_layer("repro.plots.spec") == "plots"
    assert bench_layer("repro.sim.brand_new") is None
    assert bench_layer("repro.brand_new") is None
    assert bench_layer("json") is None


def test_builtin_time_is_charged_to_the_calling_layer():
    mac = ("/src/repro/mac/tdma.py", 10, "enqueue")
    core = ("/src/repro/core/cache.py", 20, "lookup")
    heapq = ("/lib/heapq.py", 1, "heappush")
    length = ("~", 0, "<built-in method builtins.len>")
    lock = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")
    glue = ("/bench/child.py", 5, "repeat")
    stats = {
        glue: (1, 1, 0.05, 4.0, {}),
        mac: (1, 1, 1.0, 3.9, {glue: (1, 1, 1.0, 3.9)}),
        core: (3, 3, 0.5, 0.6, {mac: (3, 3, 0.5, 0.6)}),
        # len() runs under mac and core; heappush (stdlib, called from
        # mac) calls len() too, so that share reaches mac through it.
        length: (
            6,
            6,
            0.4,
            0.4,
            {mac: (2, 2, 0.1, 0.1), core: (2, 2, 0.1, 0.1), heapq: (2, 2, 0.2, 0.2)},
        ),
        heapq: (2, 2, 0.3, 0.5, {mac: (2, 2, 0.3, 0.5)}),
        lock: (1, 1, 2.0, 2.0, {mac: (1, 1, 2.0, 2.0)}),
    }
    layers = {"/src/repro/mac/tdma.py": "mac", "/src/repro/core/cache.py": "core"}
    result = rollup(stats, layers.get)
    assert result["layers"]["mac"]["self_s"] == pytest.approx(1.0 + 0.1 + 0.2 + 0.3)
    assert result["layers"]["core"]["self_s"] == pytest.approx(0.5 + 0.1)
    assert result["wait_s"] == pytest.approx(2.0)
    assert result["unattributed_s"] == pytest.approx(0.05)
    assert result["total_s"] == pytest.approx(sum(entry[2] for entry in stats.values()))
    assert result["layers"]["core"]["calls_in"] == 3
    # The benchmark's own frame calling into mac crosses into mac.
    assert result["layers"]["mac"]["calls_in"] == 1
    assert WAIT not in result["layers"] and UNATTRIBUTED not in result["layers"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 5) is None
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990)


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_seed_derivation(seed):
    assert metric_seeds(seed, 4) == preset_seeds(4, base_seed=seed)
    assert trace_seed(seed) == spawn_seeds(seed, 1)[0]
    for workload in WORKLOADS.values():
        kwargs = workload.run_kwargs(seed)
        assert kwargs["seeds"] == preset_seeds(workload.seeds, base_seed=seed)
        for name in workload.figures:
            if JOBS[name].kind == "trace":
                assert kwargs["overrides"][name]["seed"] == spawn_seeds(seed, 1)[0]


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert [(metric["name"], metric["unit"]) for metric in spec["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


def _run_benchmark(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_tampered_expected_digests_fail(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    (tmp_path / "src").symlink_to(SRC)
    expected = json.loads((copy / "expected.json").read_text())
    expected["0"]["faults"]["churn"] = "0" * 64
    (copy / "expected.json").write_text(json.dumps(expected))
    proc = _run_benchmark(tmp_path, "--workloads", "faults", "--repeats", "1", "--seed", "0")
    assert proc.returncode != 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "faults/churn" in proc.stdout


def test_sweep_resume_pass_completes(tmp_path):
    proc = _run_benchmark(ROOT, "--workloads", "sweep_resume", "--repeats", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in E2E_METRICS}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
