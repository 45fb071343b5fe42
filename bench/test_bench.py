"""Smoke test of the benchmark harness: tiny decks, correctness only, no timings."""
import json
import os
import subprocess
import sys

import gen
import run


def _run(*argv):
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--seed", "3", "--smoke", *argv],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def test_smoke_traced_every_workload():
    lines = _run("--workload", "all", "--trace", "1")
    assert len(lines) == len(gen.WORKLOADS)
    for line in lines:
        assert line["correct"], line
        assert line["failed"] == 0
        assert list(line["metrics"]) == [name for name, _ in run.PER_LAYER]


def test_smoke_end_to_end_metrics():
    (line,) = _run("--workload", "recover", "--trace", "0")
    assert line["correct"]
    assert list(line["metrics"]) == [name for name, _ in run.END_TO_END]
    assert 0 < line["metrics"]["completed_share"]["value"] < 1


def test_decks_are_deterministic():
    for workload in gen.WORKLOADS:
        first = gen.input_digest(gen.deck(workload, 5, smoke=True))
        assert gen.input_digest(gen.deck(workload, 5, smoke=True)) == first
        assert gen.input_digest(gen.deck(workload, 6, smoke=True)) != first
