"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spinpair import cli  # noqa: E402
from spinpair import propagators  # noqa: E402

COUNTED = ("propagators.reference_calls", "propagators.halvings",
           "propagators.midpoint_steps", "linalg.expm_4x4_matrices",
           "linalg.expm_2x2_matrices", "quadrature.integrand_points",
           "quadrature.failures", "fields.evaluate_points")


def _traced_counts(work: Path, requests) -> dict:
    work.mkdir()
    client = run.Client(cli, requests, work)
    recorder = spans.Recorder()
    for index in range(len(requests)):
        client.issue(index, recorder, index)
    metrics = spans.layer_metrics(recorder.spans, len(requests),
                                  set(range(len(requests))))
    counts = {name: metrics[name] for name in COUNTED}
    counts["bytes_written"] = dict(client.bytes_written)
    counts["failures"] = dict(client.errors)
    return counts


@pytest.mark.parametrize("workload, size", [("sweep_compare", 2),
                                            ("tabulated_compare", 8),
                                            ("oblique_long", 2)])
def test_counts_repeat_exactly(tmp_path, workload, size):
    requests = workloads.build(workload, 7)[:size]
    first = _traced_counts(tmp_path / "a", requests)
    second = _traced_counts(tmp_path / "b", requests)
    assert first == second
    assert first["propagators.midpoint_steps"] > 0
    assert first["fields.evaluate_points"] > 0


def test_tabulated_pass_mixes_failures_and_successes(tmp_path):
    counts = _traced_counts(tmp_path / "a", workloads.build("tabulated_compare", 7)[:8])
    assert counts["quadrature.failures"] > 0
    assert counts["failures"].keys() <= {"QuadratureFailure"}


def test_seed_fixes_the_inputs():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 3), workloads.build(workload, 3)
        assert [r.config for r in a] == [r.config for r in b]
        assert [r.config for r in a] != [r.config for r in workloads.build(workload, 4)]


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.delattr(propagators, "expm_unitary")
    with pytest.raises(AttributeError, match="expm_unitary"):
        spans.Recorder().check()


def test_self_time_excludes_children():
    spans_ = [["outer", 0.0, 10.0, -1, 0, {}, None],
              ["propagators.level", 1.0, 5.0, 0, 0, {}, None],
              ["linalg.expm", 2.0, 3.0, 1, 0, {}, None],
              ["hamiltonian.generator", 3.0, 4.5, 1, 0, {}, None]]
    metrics = spans.layer_metrics(spans_, requests=1, count_requests={0})
    assert metrics["propagators.level_ms"] == pytest.approx(4000.0)
    assert metrics["propagators.level_self_ms"] == pytest.approx(1500.0)


def test_oracle_rejects_a_perturbed_state():
    document = {
        "system": {"a_par": 1.0, "a_perp": 0.5, "zeta": 0.1, "orientation": 0.7},
        "profile": {"kind": "tanh", "omega_mid": 3.0, "amplitude": 0.05, "tau": 4.0},
        "grid": {"t_start": -4.0, "t_end": 8.0, "n_steps": 200},
        "initial_state": "chi2",
        "outputs": ["trajectory"],
        "integrator": {"tol_per_time": 1e-8},
    }
    psi, target = oracle.final_lab_state(document)
    assert oracle.check_state(document, psi, 0) < 0.5
    shifted = psi + 2.0 * target * np.array([1, 0, 0, 0])
    assert oracle.check_state(document, shifted, 0) > 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oblique_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_declared_metrics_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(spans.layer_metrics([], 1, {0})) | {
        "scenario.bytes_written", "setup.import_s", "setup.scipy_loaded",
        "trace.overhead_frac"}
    assert declared == produced
