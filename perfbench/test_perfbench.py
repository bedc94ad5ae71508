"""Self-test of the benchmark (not part of the repository's test suite):

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload twice on one seed, traced, for the shortest run the
benchmark allows (one untraced and one traced round), and asserts that
the counts it reports repeat exactly and that the metric names and
units are the ones BENCHMARK.json declares. About three minutes on a
two-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide-gate", "agent-chatter", "history-audit")

# counts that must not depend on timing
EXACT_INFO = ("accepted_per_round", "rejected_per_round", "wal_bytes_per_round",
              "history_entries", "request_mix", "artifact_bytes")
EXACT_METRIC_SUFFIXES = ("_calls_per_commit", "calls_per_gate", "bytes_per_save",
                         "decodes_per_retro", "wal.validate_calls")
EXACT_METRIC_PREFIXES = ("obligations.invocations.", "obligations.work_units.",
                         "kernel.accepted", "kernel.rejected")


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def exact_counts(info: dict, result: dict) -> dict:
    counts = {k: info[k] for k in EXACT_INFO}
    for name, metric in result["metrics"].items():
        if name.startswith(EXACT_METRIC_PREFIXES) or name.endswith(EXACT_METRIC_SUFFIXES):
            counts[name] = metric["value"]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    spec = bench_spec()
    runs = [parse(run_bench(workload, 7, trace=1)) for _ in range(2)]
    for info, result in runs:
        assert result["correct"], info["failures"] + info["errors"]
        assert result["failed"] == 0
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    first, second = (exact_counts(*r) for r in runs)
    assert first == second


def test_untraced_run_reports_every_end_to_end_metric():
    spec = bench_spec()
    proc = run_bench("agent-chatter", 3, trace=0)
    assert proc.returncode == 0, proc.stderr
    _, result = parse(proc)
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("agent-chatter", 1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
