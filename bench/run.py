"""Benchmark entry point for hyperwedge.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

W is one of verdicts, algebra, recover, cli, or all.  This script generates
the seeded deck, labels the few verdicts that need the symbolic oracle,
then runs the workload in fresh interpreters (bench/worker.py):

* --trace 0: SETUP_REPEATS workers set up (import, build, warm-up pass); the
  last one also runs the timed loop.  Prints the end-to-end metrics.
* --trace 1: one untraced run, then one traced worker over
  TRACE_PASSES passes.  Prints the per-layer metrics and trace.overhead,
  and requires both runs to produce the same result digest.
* --smoke: tiny decks and a single pass; checks correctness only.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each run
also writes bench/results/<workload>-seed<N>-trace<T>.json with the seed,
Python version, processor count, commit and input and result digests.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import ops
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
SETUP_REPEATS = 3
TRACE_PASSES = 2
# Every worker of one run must end well inside the three-minute limit.
RUN_BUDGET_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("completed_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
CLI_LAYER = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.output_bytes", "bytes"),
)
PER_LAYER = tuple(tracer.metric_units()) + CLI_LAYER + (("trace.overhead", "ratio"),)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _worker(workload, deck, work, mode, deadline, seconds=0, passes=None):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--deck", deck,
           "--workload", workload, "--mode", mode, "--seconds", str(seconds), "--work", work]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the time budget") from None
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _prepare(workload, seed, smoke, work):
    items = gen.deck(workload, seed, smoke)
    digest = gen.input_digest(items)
    if any(item.get("oracle") for item in items):
        sys.path.insert(0, SRC)
        import hyperwedge
        ops.label_oracles(hyperwedge, items)
    path = os.path.join(work, "deck.json")
    with open(path, "w") as fh:
        json.dump(items, fh)
    return items, digest, path


def _commit():
    """HEAD of the checkout's git directory, when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = os.path.join(git, ref_name)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    package = os.path.join(SRC, "hyperwedge")
    sha = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read())
    return sha.hexdigest()


def run(workload, seed, seconds, trace, smoke):
    """Run one workload; returns (result line object, results file record)."""
    deadline = perf_counter() + RUN_BUDGET_S
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(RESULTS, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    passes = 1 if smoke else None
    try:
        items, input_digest, deck = _prepare(workload, seed, smoke, work)
        if trace:
            base = _worker(workload, deck, work, "run", deadline, seconds, passes)
            traced = _worker(workload, deck, work, "traced", deadline,
                             passes=1 if smoke else TRACE_PASSES)
            workers = [base, traced]
        else:
            repeats = 1 if smoke else SETUP_REPEATS
            workers = [_worker(workload, deck, work, "setup", deadline) for _ in range(repeats - 1)]
            base = _worker(workload, deck, work, "run", deadline, seconds, passes)
            workers.append(base)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    warm_wrong = sum(w["warm_wrong"] for w in workers)
    if warm_wrong:
        problems.append(f"{warm_wrong} wrong results in warm-up passes")
    if base["wrong"]:
        problems.append(f"{base['wrong']} wrong results in the timed loop")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_digest": _source_digest(),
        "input_digest": input_digest, "result_digest": base["digest"],
        "deck_size": len(items), "pq_share": gen.pq_share(items),
        "passes": base["passes"], "attempted": base["ops"],
        "wrong": base["wrong"], "stuck": base["stuck"],
        "failed_share": (base["wrong"] + base["stuck"]) / base["ops"],
        "stuck_class_share": sum(1 for item in items if item.get("stuck_class")) / len(items),
        "setup_s_samples": [w["setup_s"] for w in workers],
    }
    if trace:
        if traced["digest"] != base["digest"]:
            problems.append("traced and untraced result digests differ")
        if traced["wrong"]:
            problems.append(f"{traced['wrong']} wrong results in the traced loop")
        if traced["coverage"]:
            problems.append("unwrapped bindings: " + ", ".join(traced["coverage"]))
        values = dict.fromkeys((name for name, _ in CLI_LAYER), 0.0)
        values.update(traced["trace"])
        values["trace.overhead"] = traced["ops_per_s"] / base["ops_per_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        record.update(traced_digest=traced["digest"], absent=traced["absent"],
                      coverage=traced["coverage"])
    else:
        values = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "ops_per_s": base["ops_per_s"],
            "latency_p50_ms": base["p50_ms"],
            "latency_p90_ms": base["p90_ms"],
            "completed_share": base["ok"] / base["ops"],
            "peak_rss_mb": base["rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record.update(problems=problems, metrics=metrics)
    name = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)
    line = {"correct": not problems, "attempted": base["ops"],
            "failed": base["wrong"], "metrics": metrics}
    return line, record


def _report(record):
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} ops in {record['passes']} passes, "
          f"failed_share {record['failed_share']:.4f} "
          f"({record['wrong']} wrong, {record['stuck']} stuck; "
          f"stuck-class share {record['stuck_class_share']:.4f}), "
          f"p/q share {record['pq_share']:.3f}, input {record['input_digest'][:12]}, "
          f"results {record['result_digest'][:12]}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    if record.get("absent"):
        print("  absent: " + ", ".join(record["absent"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description="hyperwedge benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny decks, correctness only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperwedge", "__init__.py")):
        print(f"error: no hyperwedge sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for workload in workloads:
            line, record = run(workload, args.seed, args.seconds, args.trace, args.smoke)
            _report(record)
            lines.append(line)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
