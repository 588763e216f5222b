"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest e2ebench/check_e2ebench.py -q

Every workload gets smoke runs of about a second of work: two with one
seed must agree on every figure that repeats exactly, and another seed
must give other inputs.  The oracle must reject a circuit with one
rotation angle changed, and so must a whole run fed such a circuit.
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
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402

SMOKE_SECONDS = {"cold-exact": 1.0, "approx-disk": 0.6, "serve-small": 1.0}
#: Figures that depend only on the seed.
DETERMINISTIC = ("ops_mean", "fidelity_mean", "dd.nodes_mean", "engine.hit_ratio")


def _catalogue() -> dict[str, set[str]]:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {metric["name"] for metric in document[section]}
        for section in ("end_to_end", "per_layer")
    }


def _run(workload, seed, trace=0, *extra, root=ROOT):
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SMOKE_SECONDS[workload]),
         "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return completed, time.monotonic() - start


def _parse(completed):
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(SMOKE_SECONDS))
def test_smoke_runs_repeat_per_seed(workload):
    catalogue = _catalogue()
    runs = {}
    for key, seed, trace in (("a", 7, 0), ("b", 7, 1), ("other", 8, 0)):
        completed, seconds = _run(workload, seed, trace)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert seconds < 90
        runs[key] = _parse(completed)

    for key, (info, result) in runs.items():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        section = "per_layer" if key == "b" else "end_to_end"
        names = set(result["metrics"])
        assert names <= catalogue[section]
        # Only percentiles may be missing, for want of samples in a
        # smoke run.
        assert catalogue[section] - names <= {"job_s_p50", "job_s_p90"}
        if section == "per_layer":
            assert names == catalogue[section]
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())

    (info_a, _), (info_b, _), (info_other, _) = (
        runs["a"], runs["b"], runs["other"],
    )
    assert info_a["inputs"] == info_b["inputs"] != info_other["inputs"]
    for figure in DETERMINISTIC:
        assert info_a.get(figure) == info_b.get(figure), figure
    trace_metrics = runs["b"][1]["metrics"]
    assert trace_metrics["dd.nodes_mean"]["value"] == info_a["dd.nodes_mean"]

    # Normalised timings are reported with their wall-clock figures
    # beside them: set-up everywhere, the jobs in-process only.
    metrics_a = runs["a"][1]["metrics"]
    normalised = {"setup_s"} if workload == "serve-small" else {
        "setup_s", "jobs_per_s", "job_s_p50", "job_s_p90",
    }
    assert set(info_a["wall"]) == normalised
    for name in normalised & set(metrics_a):
        assert 0.2 < metrics_a[name]["value"] / info_a["wall"][name] < 5.0


def test_oracle_matches_program_and_rejects_a_perturbed_angle():
    from repro import PipelineConfig, prepare_state, random_state
    from repro.circuit import qasm

    state = random_state((3, 2, 3), rng=5)
    for config in (PipelineConfig(), PipelineConfig(min_fidelity=0.9)):
        result = prepare_state(state, config=config)
        text = qasm.dumps(result.circuit)
        reported = result.report.fidelity
        assert oracle.fidelity(text, state.amplitudes) == pytest.approx(
            reported, abs=1e-9
        )
        failures: dict[int, str] = {}
        oracle.check_sample(
            failures, 0, text, state.amplitudes, reported, config.min_fidelity
        )
        assert failures == {}
        oracle.check_sample(
            failures, 0, oracle.perturb_first_rotation(text),
            state.amplitudes, reported, config.min_fidelity,
        )
        assert 0 in failures


def test_machine_speed_scales_each_segment_by_its_brackets():
    from common import NOMINAL_REFERENCE_S, MachineSpeed

    speed = MachineSpeed()
    speed.times = [NOMINAL_REFERENCE_S, 3 * NOMINAL_REFERENCE_S,
                   NOMINAL_REFERENCE_S]
    assert speed.factor(0) == pytest.approx(0.5)
    assert speed.nominal([0.2, 0.4], [1, 0]) == pytest.approx([0.1, 0.2])


def test_oracle_refuses_unknown_gates():
    with pytest.raises(oracle.OracleError):
        oracle.simulate("QDASM 1.0\ndims 2 2\nshift t=0 amount=1\n")


@pytest.mark.parametrize("workload", ["cold-exact", "serve-small"])
def test_run_fed_a_corrupted_circuit_fails(workload):
    completed, _ = _run(workload, 7, 0, "--corrupt")
    assert completed.returncode == 1
    _, result = _parse(completed)
    assert result["correct"] is False and result["failed"] >= 1


def test_run_without_the_program_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed, seconds = _run("cold-exact", 1, 0, root=tmp_path)
    assert completed.returncode == 2
    assert "cannot import the program" in completed.stderr or (
        "is not in" in completed.stderr
    )
    assert "Traceback" not in completed.stderr
    assert '"correct"' not in completed.stdout
    assert seconds < 60
