"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout: ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, tmp_path, capsys, trace=0, seconds=0.3, seed=1):
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--tiny",
            "--out", str(tmp_path),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def test_workloads_match_the_spec():
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload, tmp_path, capsys):
    code, result, lines = _run(workload, tmp_path, capsys)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert np.isfinite(reported["value"]) and reported["value"] > 0
        assert any(line.startswith(f"{metric['name']} = ") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    record = json.loads((tmp_path / "results" / f"{workload}-seed1-trace0.json").read_text())
    assert record["manifest"]["seed"] == 1
    assert len(record["manifest"]["config_sha256"]) == 64


@pytest.mark.parametrize("workload", ["train-qpa-n17", "train-dot-n50"])
def test_traced_run_reports_every_layer_metric(workload, tmp_path, capsys):
    code, result, _ = _run(workload, tmp_path, capsys, trace=1)
    assert code == 0
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    grad_calls = metrics["circuit.score_grad_batch.calls"]
    assert (grad_calls > 0) == (workload == "train-qpa-n17")
    assert metrics["vit.backward.calls"] > 0 and metrics["training.sgd_step.calls"] > 0
    assert (tmp_path / workload / "spans-seed1.json").is_file()


def test_traced_counts_repeat_exactly(tmp_path, capsys):
    # A traced run does a fixed amount of work, so calls and elements do not
    # depend on how fast the program is.
    counts = []
    for attempt in range(2):
        _, result, _ = _run("train-qpa-n17", tmp_path / str(attempt), capsys, trace=1)
        counts.append(
            {k: v["value"] for k, v in result["metrics"].items() if k.endswith((".calls", ".elements"))}
        )
    assert counts[0] == counts[1]
    assert counts[0]["circuit.score_grad_batch.elements"] > 0


def test_spread_schedule_interleaves_sets_and_workloads():
    import spread

    order = spread.schedule(2, ["a", "b"], [1, 2])
    assert sorted(order) == sorted((s, w, seed) for s in (1, 2) for w in "ab" for seed in (1, 2))
    assert [s for s, _, _ in order] == [1, 1, 2, 2, 2, 2, 1, 1]
    assert [w for _, w, _ in order] == ["b", "a", "a", "b", "b", "a", "a", "b"]


def _perturb_first(fn, delta=1e-9, when=lambda args: True):
    def corrupted(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        if when(args):
            out[(0,) * out.ndim] += delta
        return out

    return corrupted


def _corrupt_sampler(fn):
    def corrupted(q, k, params, shots, seed=0):
        return fn(q, k, params, shots, seed) + (0.2 if seed % 2 else 0.0)

    return corrupted


def _nan_loss(fn):
    def corrupted(*args, **kwargs):
        _, grads = fn(*args, **kwargs)
        return float("nan"), grads

    return corrupted


@pytest.mark.parametrize(
    "workload, target, corrupt, check",
    [
        ("train-qpa-n17", "circuit.score_batch", _perturb_first, "attention_matches_oracle"),
        ("train-dot-n50", "scorers.dot_scores", _perturb_first, "attention_matches_oracle"),
        ("train-dot-n50", "vit.backward", _nan_loss, "exception RuntimeError"),
        (
            "eval-noise-qpa-n50",
            "circuit.score_noisy_batch",
            lambda fn: _perturb_first(fn, when=lambda args: args[3] == "PF"),
            "pf_pair_mu_equals_clean",
        ),
        ("verify-shots", "circuit.score_sampled", _corrupt_sampler, "shot_std_within_bound"),
        ("verify-shots", "circuit.score_sampled", _corrupt_sampler, "claims_all_passed"),
    ],
)
def test_corrupted_output_trips_its_check(workload, target, corrupt, check, tmp_path, capsys):
    import spans

    run.import_package()
    with spans.replaced(target, corrupt):
        code, result, lines = _run(workload, tmp_path, capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("FAILED ") and line.endswith(check) for line in lines), lines


def test_exception_counts_as_failure(tmp_path, capsys):
    import spans

    def broken(fn):
        def raising(*args, **kwargs):
            raise RuntimeError("injected")

        return raising

    run.import_package()
    with spans.replaced("vit.backward", broken):
        code, result, lines = _run("train-dot-n50", tmp_path, capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert "FAILED pass 0: exception RuntimeError" in lines


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
