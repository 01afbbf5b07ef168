"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/tests

The end-to-end cases run ``run.py`` at the tiny size, about two minutes in
all on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import digest  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from layers import PER_LAYER  # noqa: E402


def _run(*args: str, cwd: pathlib.Path = ROOT, timeout: float = 300):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--seed", "0", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "# failed_frac 0 ratio" in proc.stdout
    assert ("# regen_s " in proc.stdout) == (name == "served-pipeline")
    assert '"scipy"' in proc.stdout  # the environment stamp


def test_traced_tiny_beam_run_reports_every_layer():
    proc = _run("--workload", "fig5-beam", "--seed", "0", "--seconds", "1",
                "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _result(proc)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [(n, u) for n, u, _ in PER_LAYER]
    # the beam path never goes through the batch evaluator
    assert metrics["batch.classify.calls"]["value"] == 0
    assert metrics["beam.eval.calls"]["value"] > 0
    assert metrics["replay.run.calls"]["value"] > 0
    written = ROOT / ".perfbench" / "spans-fig5-beam-0.json"
    spans = json.loads(written.read_text())
    written.unlink()
    with contextlib.suppress(OSError):  # another run may still use it
        written.parent.rmdir()
    names = {span[0] for traced in spans for process in traced["processes"] for span in process}
    assert {"beam.run", "beam.eval", "replay.run"} <= names


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "fig5-beam", "--seed", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def _tiny_campaign():
    import repro

    return repro.run_campaign("FMXM", device="kepler", injections=6, seed=3)


def test_corrupted_campaign_record_trips_the_check():
    from repro.faultsim.outcomes import Outcome

    campaign = _tiny_campaign()
    reference = {digest.reference_key("x", "tiny", 3): digest.sha([digest.campaign_summary(campaign)])}
    clean = digest.sha([digest.campaign_summary(campaign)])
    assert digest.check("x", "tiny", 3, clean, reference) == "match"

    records = list(campaign.records)
    first = records[0]
    flipped = Outcome.SDC if first.outcome is not Outcome.SDC else Outcome.MASKED
    records[0] = dataclasses.replace(first, outcome=flipped)
    campaign.records = records
    corrupted = digest.sha([digest.campaign_summary(campaign)])
    assert digest.check("x", "tiny", 3, corrupted, reference) == "mismatch"

    # a single changed bit position is enough, even with equal outcome counts
    records[0] = dataclasses.replace(first, bit=first.bit + 1)
    campaign.records = records
    assert digest.check("x", "tiny", 3, digest.sha([digest.campaign_summary(campaign)]),
                        reference) == "mismatch"


def _pass(digest_value: str, **extra) -> dict:
    return {
        "traced": False, "error": None, "digest": digest_value, "attempted": 10,
        "completed": 10, "wall_s": 1.0, "evals": 10,
        "peak_rss_mb": 100.0, "job_seconds": [0.1] * 3,
        "workers": 1, "seed": 12345, **extra,
    }


def test_disagreeing_or_unreferenced_digests():
    ok = run.reduce_run("fig5-beam", "tiny", [_pass("d1"), _pass("d1")], [1.0], False)
    assert ok["correct"] and any("reference: unreferenced" in n for n in ok["notes"])
    bad = run.reduce_run("fig5-beam", "tiny", [_pass("d1"), _pass("d2")], [1.0], False)
    assert not bad["correct"]
    other_inputs = run.reduce_run(
        "fig5-beam", "tiny", [_pass("d1"), _pass("d2", seed=12346)], [1.0], False)
    assert other_inputs["correct"]


def test_failed_pass_is_counted_not_raised(tmp_path, monkeypatch):
    from repro.common.errors import ChunkQuarantinedError
    from repro.exec.engine import SerialExecutor

    calls = {"n": 0}
    original = SerialExecutor.run_chunks

    def flaky(self, fn, context, tasks, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ChunkQuarantinedError([(0, None, "poisoned chunk")])
        return original(self, fn, context, tasks, *args, **kwargs)

    monkeypatch.setattr(SerialExecutor, "run_chunks", flaky)
    p = workload.Pass("fig5-beam", 0, "tiny", tmp_path)
    out = workload.run_pass(p, trace=False, run_id="test")
    assert "ChunkQuarantinedError" in out["error"]
    assert out["attempted"] > out["completed"]

    # the aborted pass owes what the clean pass of the run attempted
    clean = _pass("d1", attempted=5000, completed=5000)
    failed = {**out, "traced": False}
    result = run.reduce_run("fig5-beam", "tiny", [clean, {**failed, "seed": 0}], [1.0], False)
    assert not result["correct"]
    assert result["failed"] == 5000 - out["completed"]
    assert result["attempted"] == 10000
    assert result["metrics"]  # the clean pass's numbers survive


def test_seed_changes_the_generated_inputs(tmp_path):
    def inputs(seed):
        p = workload.Pass("fig5-beam", seed, "tiny", tmp_path / str(seed))
        assert p.config.seed == seed
        kernel = p.session.workload("kepler", "FMXM")
        kernel.prepare()
        return {k: v for k, v in vars(kernel).items() if isinstance(v, np.ndarray)}

    a, b, again = inputs(0), inputs(1), inputs(0)
    assert a and a.keys() == b.keys()
    assert any(not np.array_equal(a[k], b[k]) for k in a)
    assert all(np.array_equal(a[k], again[k]) for k in a)
