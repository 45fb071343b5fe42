"""One workload in a fresh interpreter: set up, warm up, then a timed loop.

    python3 bench/worker.py --deck DECK.json --workload W --mode M [--seconds S] [--passes K]

The loop is closed: one client, one operation in flight, no threads.  It
repeats whole passes over the deck, so every pass does the same work.  Results
are judged after each pass, outside the timed region.  The worker prints one
JSON object; run.py turns the objects of its workers into metrics.

Modes: `setup` stops after the warm-up pass, `run` times passes until the
run is closest to --seconds (and holds at least MIN_OPS operations), and
`traced` installs the tracer and times exactly --passes passes.
"""
import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import ops
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Ten operations must lie beyond the 90th percentile.
MIN_OPS = 100
CHILD_TIMEOUT_S = 120


def run_pass(calls):
    """Call each op once; returns results, per-op latencies and wall time."""
    results, latencies = [], []
    start = perf_counter()
    for call in calls:
        begun = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising op is a failed op, not a failed benchmark
            result = exc
        latencies.append(perf_counter() - begun)
        results.append(result)
    return results, latencies, perf_counter() - start


class Judge:
    """Checks each pass against the expectations and against the first pass."""

    def __init__(self, judge, canon):
        self.judge, self.canon = judge, canon
        self.first = None
        self.outcomes = {"ok": 0, "wrong": 0, "stuck": 0}

    def check(self, results):
        texts = []
        for i, result in enumerate(results):
            if isinstance(result, Exception):
                outcome, text = "wrong", f"raised {type(result).__name__}: {result}"
            else:
                outcome, text = self.judge(i, result), self.canon(i, result)
            if self.first is not None and text != self.first[i]:
                outcome = "wrong"
            self.outcomes[outcome] += 1
            texts.append(text)
        if self.first is None:
            self.first = texts

    def digest(self):
        return hashlib.sha256("\n".join(self.first).encode()).hexdigest()


def timed_loop(calls, judge, seconds, passes):
    """Whole passes until the run is closest to `seconds`, or exactly `passes`."""
    latencies, wall, done = [], 0.0, 0
    while True:
        results, lat, elapsed = run_pass(calls)
        judge.check(results)
        latencies += lat
        wall += elapsed
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif len(latencies) >= MIN_OPS and wall + wall / done / 2 >= seconds:
            break
    ms = sorted(x * 1000 for x in latencies)
    tail = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "passes": done,
        "ops": len(ms),
        "wall_s": wall,
        "ops_per_s": len(ms) / wall,
        "p50_ms": statistics.median(ms),
        "p90_ms": tail,
        "mean_ms": sum(ms) / len(ms),
    }


# ------------------------------------------------------------------- library

def library(args, items):
    started = perf_counter()
    hw = importlib.import_module("hyperwedge")
    traced = None
    if args.mode == "traced":
        traced = tracer.Tracer()
        traced.install(hw)
        traced.active = True
    built = ops.build(hw, args.workload, items)
    calls = [op.call for op in built]
    warm, _, _ = run_pass(calls)
    setup_s = perf_counter() - started
    judge = Judge(lambda i, r: built[i].judge(r), lambda i, r: built[i].canon(r))
    warm_judge = Judge(judge.judge, judge.canon)
    warm_judge.check(warm)
    report = {"setup_s": setup_s, "warm_wrong": warm_judge.outcomes["wrong"]}
    if args.mode != "setup":
        report.update(timed_loop(calls, judge, args.seconds, args.passes))
        report.update(judge.outcomes, digest=judge.digest())
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced is not None:
        traced.active = False
        report["trace"] = traced.metrics()
        report["absent"] = traced.absent
        report["coverage"] = traced.coverage_problems()
    return report


# ----------------------------------------------------------------------- cli

def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _run_child(argv):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stdout


def _write_requests(items, work):
    argvs = []
    for item in items:
        paths = {}
        for key, obj in item["files"].items():
            path = os.path.join(work, f"{item['id']}-{key}.json")
            doc = {"window": obj["window"], "grade": obj["grade"],
                   "terms": [{"indices": k, "coeff": c} for k, c in obj["terms"]]}
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths[key] = path
        argvs.append(ops.cli_argv(item, paths))
    return argvs


def _median_ms(argv, repeats=5):
    times = []
    for _ in range(repeats):
        begun = perf_counter()
        _run_child(argv)
        times.append((perf_counter() - begun) * 1000)
    return statistics.median(times)


def _main_pass(argvs, items):
    """The same requests through in-process main(), stdout captured."""
    main = importlib.import_module("hyperwedge.cli").main
    elapsed, wrong = 0.0, 0
    for argv, item in zip(argvs, items):
        out = io.StringIO()
        begun = perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        elapsed += perf_counter() - begun
        wrong += ops.cli_judge(item, code, out.getvalue()) != "ok"
    return elapsed * 1000 / len(argvs), wrong


def cli(args, items):
    started = perf_counter()
    work = os.path.join(args.work, f"requests-{os.getpid()}")
    os.makedirs(work)
    argvs = _write_requests(items, work)
    _run_child(["-m", "hyperwedge.cli", *argvs[0]])
    setup_s = perf_counter() - started

    outputs = []

    def request(argv):
        def call():
            code, stdout = _run_child(["-m", "hyperwedge.cli", *argv])
            outputs.append(len(stdout.encode()))
            return code, stdout
        return call

    calls = [request(argv) for argv in argvs]
    judge = Judge(lambda i, r: ops.cli_judge(items[i], *r),
                  lambda i, r: f"{r[0]} " + hashlib.sha256(r[1].encode()).hexdigest())
    report = {"setup_s": setup_s, "warm_wrong": 0}
    traced = None
    if args.mode == "traced":
        interpreter_ms = _median_ms(["-c", "pass"])
        import_ms = _median_ms(["-c", "import hyperwedge.cli"]) - interpreter_ms
        hw = importlib.import_module("hyperwedge")
        importlib.import_module("hyperwedge.cli")
        traced = tracer.Tracer()
        traced.install(hw)
        traced.active = True
        main_ms, report["warm_wrong"] = _main_pass(argvs, items)
        traced.active = False
    if args.mode != "setup":
        report.update(timed_loop(calls, judge, args.seconds, args.passes))
        report.update(judge.outcomes, digest=judge.digest())
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if traced is not None:
        report["trace"] = dict(
            traced.metrics(),
            **{"cli.interpreter_ms": interpreter_ms, "cli.import_ms": import_ms,
               "cli.main_ms": main_ms, "cli.startup_ms": report["mean_ms"] - main_ms,
               "cli.output_bytes": sum(outputs) / len(outputs)})
        report["absent"] = traced.absent
        report["coverage"] = traced.coverage_problems()
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deck", required=True)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--work", required=True, help="scratch directory, removed by run.py")
    args = parser.parse_args()
    with open(args.deck) as fh:
        items = json.load(fh)
    report = (cli if args.workload == "cli" else library)(args, items)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
