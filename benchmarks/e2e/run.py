"""End-to-end JIT benchmark: five seeded workloads, each in a fresh
subprocess, with the end-to-end metrics (or, with ``--trace``, the
per-layer metrics) printed by name and unit.

    python benchmarks/e2e/run.py                       # every workload
    python benchmarks/e2e/run.py --workload csv --seed 3
    python benchmarks/e2e/run.py --trace               # per-layer run
    python benchmarks/e2e/run.py --runs 5 --json benchmarks/e2e/BENCH_0.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--runs N``
each workload runs N times (seeds ``seed .. seed+N-1``, alternating the
workload order); the median and quartiles of every metric are printed,
and the exit status is nonzero when a metric's spread between quartiles
exceeds its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "workloads.py")

#: A worker that outlives this is killed; one run is sized to well
#: under it at the default ``--seconds``.
WORKER_TIMEOUT_S = 170

#: Measured seconds of a ``--scale smoke`` run unless ``--seconds`` is
#: given; a full-scale run defaults to ``run_seconds`` of BENCHMARK.json.
SMOKE_SECONDS = 0.3


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _worker_env():
    """The worker's environment: no ``REPRO_*`` knobs (every option is
    passed explicitly), the repository's sources on the path, a fixed
    string-hash seed so compiles are reproducible, and single-threaded
    BLAS so the process never runs more threads than the closed loop."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, seed, seconds, trace, scale):
    """One workload in a fresh process; returns its result document,
    or raises RuntimeError when the worker fails."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--scale", scale]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s: worker timed out after %ds"
                           % (workload, WORKER_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: worker exited with status %d"
                           % (workload, proc.returncode))
    return json.loads(lines[-1])


def _fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_run(doc):
    """Human-readable lines for one worker result."""
    print("== %s (seed %d, %s%s): %d calls, %d failed"
          % (doc["workload"], doc["seed"], doc["scale"],
             ", traced" if doc["trace"] else "", doc["attempted"],
             doc["failed"]))
    timing = doc.get("timing", {})
    bases = doc.get("ratio_bases", {})
    for name, m in doc["metrics"].items():
        extra = ""
        if name in timing:
            extra = "  (p99 %s, n=%d)" % (_fmt(timing[name]["p99"]),
                                          timing[name]["n"])
        elif name in bases:
            extra = "  (of %d %s)" % (bases[name][1], bases[name][0])
        print("   %-32s %14s %-8s%s" % (name, _fmt(m["value"]), m["unit"],
                                         extra))
    if not doc["trace"]:
        ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
        print("   %-32s %14s %-8s  (of %d calls)"
              % ("fail_ratio", _fmt(ratio), "ratio", doc["attempted"]))
    for failure in doc["failures"]:
        print("   FAILED %s" % failure)
    for name, value in doc["diagnostics"].items():
        print("   %s: %s" % (name, json.dumps(value)))
    if doc.get("spans_file"):
        print("   %d spans -> %s" % (doc["spans"],
                                      os.path.relpath(doc["spans_file"])))


def summarize(docs, bounds):
    """Median and quartiles of every metric over repeated runs of one
    workload; returns (summary, names of metrics whose spread between
    quartiles exceeds their bound)."""
    summary, too_wide = {}, []
    for name in docs[0]["metrics"]:
        values = [d["metrics"][name]["value"] for d in docs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values,
                         "unit": docs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        if bound is not None and spread > bound:
            too_wide.append(name)
    return summary, too_wide


def main(argv=None):
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json, or %g with --scale smoke)"
                        % SMOKE_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run with span tracing")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload N times")
    parser.add_argument("--json", metavar="PATH",
                        help="write every run's full result here")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        parser.error("no repro sources under %s" % SRC)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seconds = args.seconds
    if seconds is None:
        seconds = (declared["run_seconds"] if args.scale == "full"
                   else SMOKE_SECONDS)

    workloads = [args.workload] if args.workload else names
    docs = {w: [] for w in workloads}
    try:
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                doc = run_worker(w, args.seed + r, seconds, args.trace,
                                 args.scale)
                print_run(doc)
                docs[w].append(doc)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summaries, too_wide = {}, []
    if args.runs > 1:
        print("== %d runs per workload: median [q1, q3] spread"
              % args.runs)
        for w in workloads:
            summaries[w], wide = summarize(docs[w], bounds)
            too_wide += ["%s.%s" % (w, name) for name in wide]
            for name, s in summaries[w].items():
                flag = "  > bound %g" % bounds[name] if name in wide else ""
                print("   %-10s %-28s %12s [%s, %s] %.3f %s%s"
                      % (w, name, _fmt(s["median"]), _fmt(s["q1"]),
                         _fmt(s["q3"]), s["spread"], s["unit"], flag))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"command": sys.argv, "runs": docs,
                       "summary": summaries}, f, indent=1, sort_keys=True)

    all_docs = [d for w in workloads for d in docs[w]]
    metrics = {}
    for w in workloads:
        for name, m in docs[w][0]["metrics"].items():
            values = [d["metrics"][name]["value"] for d in docs[w]]
            key = name if len(workloads) == 1 else "%s.%s" % (w, name)
            metrics[key] = {"value": statistics.median(values),
                            "unit": m["unit"]}
    correct = all(d["correct"] for d in all_docs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(d["attempted"] for d in all_docs),
                      "failed": sum(d["failed"] for d in all_docs),
                      "metrics": metrics}))
    if too_wide:
        print("spread above bound: %s" % ", ".join(too_wide),
              file=sys.stderr)
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
