"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Each workload runs for a few ops and must report every end-to-end metric
with its unit and no failed op.  Deliberately corrupted outputs must count
as failures, which shows the output checks are live.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_are_documented_and_registered():
    doc = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    assert list(doc["workloads"]) == NAMES
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)
    for entry in doc["workloads"].values():
        assert {"why", "op", "loop", "dominant_layer"} <= set(entry)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for row in doc["predictions"]:
        assert row["on"] in NAMES and set(row["no_change_on"]) <= set(NAMES)
        assert set(row["moves"]) <= end_to_end and set(row["per_layer"]) <= per_layer
    assert doc["seeds"]["holdout"] not in doc["seeds"]["tuning"]


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_named_with_units_and_no_failures(name):
    result = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("name", ["scalar-sweep", "cli-cold"])
def test_traced_run_reports_every_layer_and_writes_spans(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.4", "--trace", "1",
                          "--spans", str(spans)))
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    shares = ["simulation.sample_counts.share", "simulation.estimate.share", "calculus.share",
              "amplitudes.share", "data.share", "cli.share", "bench.share"]
    assert sum(metrics[k] for k in shares) == pytest.approx(1.0, abs=1e-9)
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    roots = {r["span"] for r in records if r["name"] == "op"}
    assert len(roots) == metrics["trace.ops"]
    assert all(r["parent"] in roots for r in records if r["name"] != "op")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "scalar-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _one_cycle(workload) -> tuple[int, int]:
    untraced, _ = run.run_loop(workload, seconds=0.0)
    return untraced.failed, untraced.ops


def test_flipped_report_byte_is_a_failure(monkeypatch, tmp_path):
    write_report = workloads.write_report

    def flipped(doc):
        data = bytearray(write_report(doc))
        at = data.index(b'"delta": ') + len(b'"delta": ')
        while not chr(data[at]).isdigit():
            at += 1
        data[at] = ord("7") if data[at] != ord("7") else ord("3")
        return bytes(data)

    workload = workloads.CalibrationGrid(5, str(tmp_path))
    assert _one_cycle(workload) == (0, 1)
    monkeypatch.setattr(workloads, "write_report", flipped)
    assert _one_cycle(workload) == (1, 1)


def test_perturbed_reconstruction_is_a_failure(monkeypatch, tmp_path):
    reconstruct = workloads.reconstruct_probability
    workload = workloads.ScalarSweep(5, str(tmp_path))
    assert _one_cycle(workload) == (0, 1)
    monkeypatch.setattr(workloads, "reconstruct_probability",
                        lambda a, b, lam: reconstruct(a, b, lam) * (1.0 - 1e-9))
    assert _one_cycle(workload) == (1, 1)


def test_cli_inputs_are_admissible_for_every_seed(tmp_path):
    # the direct-mode p(S) is rebuilt from a drawn lambda, which must lie
    # inside lambda_range or set-up fails on some seeds (151 among them)
    for seed in range(100, 200):
        workloads.CliCold(seed, str(tmp_path))


def test_cli_output_that_differs_from_in_process_main_is_a_failure(tmp_path):
    workload = workloads.CliCold(5, str(tmp_path))
    workload.expected["range"] = workload.expected["range"].replace(b"=", b":", 1)
    assert _one_cycle(workload) == (1, workload.cycle)
