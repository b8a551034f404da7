"""The five workloads of the end-to-end benchmark, and the worker entry
point that runs one of them in a fresh process.

Load model: a closed loop with one client. Every guest call is made
from the main thread and the benchmark waits for it before making the
next; the compile server runs with ``workers=0`` and is drained by the
benchmark, so no compile thread races the measurement. Inputs come from
``random.Random(seed)``; the JIT only ever sees the generated inputs.

Every guest result is checked against a reference that does not use
the compiler under test (the host baselines, NumPy, ``math`` or the
bare interpreter). Usage (normally through ``run.py``)::

    python benchmarks/e2e/workloads.py --workload csv --seed 1 --seconds 15
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from repro import CompileOptions, Lancet
from repro.apps import load_app
from repro.apps.csv_baselines import accessed_keys, cpp_baseline, generate_csv
from repro.frontend.compiler import compile_source
from repro.interp.interpreter import Interpreter
from repro.optiml import load_optiml
from repro.optiml.reference import (kmeans_cpp, kmeans_data, logreg_cpp,
                                    logreg_data, names_data, namescore_fused)
from repro.pipeline import TIER1, TIER2, tier_options
from repro.server import CompileServer

import corpus
import spans

perf_counter = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _DECLARED = json.load(_f)
#: The unit of every declared metric, end-to-end and per-layer.
UNITS = {m["name"]: m["unit"]
         for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}

#: Length of one block of steady rounds. A measured run spreads its
#: cold starts evenly over the run and fills the gaps with steady
#: blocks, so a burst of contention from other tenants of the host slows
#: a share of every metric's samples instead of all samples of one.
BLOCK_S = 0.25


@dataclass(frozen=True)
class Plan:
    """Sizes for one workload. A measured run makes at least ``cold``
    cold starts and ``min_rounds`` steady rounds and otherwise fills the
    time it is given; the traced run makes exactly ``cold`` cold starts
    and ``trace_rounds`` traced and as many untraced steady rounds."""
    cold: int
    min_rounds: int
    trace_rounds: int
    rows: int = 0            # csv
    n: int = 0               # optiml: points / rows
    names: int = 0           # optiml: namescore input size
    per_cell: int = 0        # warmup, warm_start: corpus methods per cell
    classes: tuple = (0, 1, 2, 3)  # warmup, warm_start: corpus size classes
    slice: int = 0           # warmup: methods per explicit-compile event
    tree: int = 64           # speculate: tree size after a rebuild
    warm_vms: int = 0        # warm_start
    steady_per_vm: int = 0   # warm_start


PLANS = {
    "full": {
        "csv": Plan(cold=60, min_rounds=20, trace_rounds=100, rows=4000),
        "optiml": Plan(cold=30, min_rounds=10, trace_rounds=20, n=50000,
                       names=10000),
        "warmup": Plan(cold=50, min_rounds=10, trace_rounds=10, per_cell=10,
                       slice=5),
        "speculate": Plan(cold=20, min_rounds=10, trace_rounds=12),
        "warm_start": Plan(cold=2, min_rounds=0, trace_rounds=2, per_cell=6,
                           classes=(0, 1), warm_vms=3, steady_per_vm=6),
    },
    "smoke": {
        "csv": Plan(cold=2, min_rounds=3, trace_rounds=2, rows=200),
        "optiml": Plan(cold=1, min_rounds=2, trace_rounds=1, n=2000,
                       names=300),
        "warmup": Plan(cold=2, min_rounds=2, trace_rounds=1, per_cell=2,
                       classes=(0, 2), slice=5),
        "speculate": Plan(cold=1, min_rounds=1, trace_rounds=1),
        "warm_start": Plan(cold=1, min_rounds=0, trace_rounds=1, per_cell=2,
                           classes=(0, 1), warm_vms=1, steady_per_vm=2),
    },
}


def pinned_options(**overrides):
    """Every option an environment variable could otherwise change is
    set here explicitly; the rest keep their CompileOptions defaults."""
    fields = dict(validate_passes=False, verify_deopt=False, parsafe="off",
                  baseline=True, trace_tier=False, cache_dir=None,
                  persist=True, compile_workers=0)
    fields.update(overrides)
    return CompileOptions(**fields)


class _Raised:
    """Stands in for the result of a guest call that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return "raised %s: %s" % (type(self.exc).__name__, self.exc)


class Run:
    """State of one workload run: samples, the oracle's counts, the
    summed public counters of every VM, and the optional tracer."""

    def __init__(self, workload, seed, seconds, plan, tracer=None):
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.tracer = tracer
        self.deadline = perf_counter() + seconds
        self.samples = defaultdict(list)     # metric -> values
        self.traced_rounds = []              # seconds, traced run only
        self.untraced_rounds = []
        self.items_per_round = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []                   # first few, for the report
        self.counters = Counter()
        self.options = None                  # base CompileOptions
        self.diagnostics = {}

    # -- phases ---------------------------------------------------------------

    def begin(self):
        """Inputs and references are ready: start tracing, if asked."""
        if self.tracer is not None:
            self.tracer.install()

    def end(self):
        if self.tracer is not None:
            self.tracer.uninstall()

    def phase(self, name, rnd=0, unit=""):
        """Start a phase: collect garbage left by the last one, and tag
        the spans that follow with their request id."""
        gc.collect()
        self.request(name, rnd, unit)

    def request(self, phase, rnd, unit=""):
        if self.tracer is not None:
            self.tracer.set_request(phase, rnd, unit)

    # -- the oracle -----------------------------------------------------------

    def call(self, fn, *args):
        """Make one guest call; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:   # any guest or JIT error is a failed call
            self._fail("%s%r" % (getattr(fn, "__name__", fn), args[:1]),
                       _Raised(exc))
            return _Raised(exc)

    def expect(self, got, want, what, approx=False):
        """Check a call's result against its reference. Raised calls
        were already counted by :meth:`call`."""
        if isinstance(got, _Raised):
            return
        if not (_approx_equal(got, want) if approx else got == want):
            self._fail(what, "got %r, want %r" % (got, want))

    def _fail(self, what, detail):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append("%s: %s" % (what, detail))

    # -- scheduling -----------------------------------------------------------

    def time_left(self, next_step=0.0):
        return perf_counter() + next_step < self.deadline

    def steady_round(self, one_round, i):
        """One steady round; ``one_round(i)`` returns its timed seconds."""
        seconds = one_round(i)
        self.samples["steady_round_ms"].append(seconds * 1e3)
        return seconds

    def interleave(self, cold_start, one_round, cold_done=1):
        """Make the rest of ``plan.cold`` cold starts (``cold_done`` were
        made already; the first one leaves the VM the steady rounds run
        on), spread evenly until the deadline, with blocks of steady
        rounds in between. The cold-start count is fixed, so the memory
        the cold VMs leave behind does not depend on the machine's
        speed; steady rounds fill the remaining time.

        The traced run makes the cold starts first and then mixes traced
        and untraced steady rounds, the untraced ones giving
        ``trace.overhead_ratio``. The order is traced, untraced,
        untraced, traced, and so on, so that neither a steady drift nor
        a pattern repeating every other round (speculate's tree grows
        every cycle) favours one side."""
        plan = self.plan
        tracer = self.tracer
        if tracer is not None:
            for i in range(cold_done, plan.cold):
                cold_start(i)
            self.phase("steady")
            for i in range(2 * plan.trace_rounds):
                traced = (i + i // 2) % 2 == 0
                if traced:
                    tracer.install()
                else:
                    tracer.uninstall()
                self.request("steady", i)
                (self.traced_rounds if traced
                 else self.untraced_rounds).append(
                    self.steady_round(one_round, i))
            tracer.install()
            return
        start = perf_counter()
        slot = (self.deadline - start) / max(1, plan.cold - cold_done)
        n_cold, n_rounds = cold_done, 0
        while True:
            now = perf_counter()
            if n_cold < plan.cold and \
                    now >= start + slot * (n_cold - cold_done + 0.5):
                cold_start(n_cold)
                n_cold += 1
                continue
            if n_cold >= plan.cold and n_rounds >= plan.min_rounds and \
                    not self.time_left():
                return
            self.phase("steady", n_rounds)
            t0 = perf_counter()
            while True:
                self.steady_round(one_round, n_rounds)
                n_rounds += 1
                if perf_counter() - t0 >= BLOCK_S:
                    break

    # -- counters -------------------------------------------------------------

    def harvest(self, jit):
        """Add one VM's public counters (``Lancet.stats()`` and its
        DeliteRuntime) into the run's totals."""
        s = jit.stats()
        c = self.counters
        tiers = s["tiers"]
        c["compiles"] += s["compiles"]
        c["compiles.tier1"] += tiers["compiles_by_tier"].get(1, 0)
        c["compiles.tier2"] += tiers["compiles_by_tier"].get(2, 0)
        c["macro_expansions"] += s["macro_expansions"]
        c["deopts"] += s["deopts"]
        c["invalidations"] += s["invalidations"]
        c["tiers.promotions"] += tiers["promotions"]
        c["tiers.osr_up"] += tiers["osr_tier_ups"]
        c["tiers.demotions"] += tiers["demotions"]
        traces = s["traces"]
        if traces.get("enabled"):
            for key in ("recordings", "aborts", "compiles", "stitches",
                        "exits"):
                c["traces." + key] += traces[key]
        unit_cache = s["caches"].get("unit_cache", {})
        c["unit_cache.hits"] += unit_cache.get("hits", 0)
        c["unit_cache.misses"] += unit_cache.get("misses", 0)
        if jit.compile_server is None:
            # A server's store reports to the server's telemetry, which
            # harvest_server reads once for all of its tenants.
            c["codecache.hits"] += s["codecache"].get("hits", 0)
            c["codecache.misses"] += s["codecache"].get("misses", 0)
        c["delite.ops"] += jit.delite.ops_run
        c["delite.fused_ops"] += jit.delite.fused_ops_run
        c["delite.parsafe_fallbacks"] += jit.delite.parsafe_fallbacks

    def harvest_server(self, server):
        s = server.stats()
        c = self.counters
        c["server.dedup_waits"] += s["dedup_waits"]
        c["server.shed"] += s["shed"]
        store = s["store"] or {}
        c["codecache.hits"] += store.get("hits", 0)
        c["codecache.misses"] += store.get("misses", 0)


def _approx_equal(got, want):
    if isinstance(want, (list, tuple, np.ndarray)):
        return (isinstance(got, (list, tuple, np.ndarray))
                and len(got) == len(want)
                and all(_approx_equal(g, w) for g, w in zip(got, want)))
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-7,
                            abs_tol=1e-9)
    except (TypeError, ValueError):
        return False


def _timed_setup(run, make):
    """``make()`` builds and loads one VM; its duration is a
    ``setup_s`` sample."""
    t0 = perf_counter()
    jit = make()
    run.samples["setup_s"].append(perf_counter() - t0)
    return jit


def _timed_ms(run, metric, fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    run.samples[metric].append((perf_counter() - t0) * 1e3)
    return result


def _quick_compile(run, jit, module, name):
    _timed_ms(run, "quick_compile_ms", jit.compile_function, module, name,
              tier_options(run.options, TIER1))


# -- csv: paper Table 1 ----------------------------------------------------------

#: Benchmark-owned guest helper: the flagQuery of csv.mj, but returning
#: compileCSV's runner and accumulating into a host-owned array so that
#: every steady round can be checked.
CSV_HELPER = """
def makeRunner(lines, keys, acc) {
  return CsvApp.compileCSV(lines, fun(rec) {
    Lancet.unroll(keys);
    var t = 0;
    var i = 0;
    while (i < len(keys)) { t = t + len(rec.apply(keys[i])); i = i + 1; }
    acc[1] = acc[1] + t;
    if (rec.apply("Flag") == "yes") { acc[0] = acc[0] + 1; }
  });
}
"""


def run_csv(run):
    plan = run.plan
    lines = generate_csv(plan.rows, cols=20, seed=run.seed)
    keys = accessed_keys()
    expected = cpp_baseline(lines, keys)
    run.options = opts = pinned_options()
    run.items_per_round = plan.rows

    def make():
        jit = Lancet(options=opts)
        load_app(jit, "csv", module="CsvApp")
        jit.load(CSV_HELPER, module="Bench")
        return jit

    def cold_start(i):
        run.phase("cold", i)
        jit = _timed_setup(run, make)
        acc = [0, 0]
        t0 = perf_counter()
        runner = run.call(jit.vm.call, "Bench", "makeRunner",
                          [lines, keys, acc])
        t1 = perf_counter()
        run.call(runner, 1)
        t2 = perf_counter()
        run.expect(acc, expected, "csv cold run")
        run.samples["compile_ms"].append((t1 - t0) * 1e3)
        run.samples["warmup_ms"].append((t2 - t0) * 1e3)
        # Tier-1 compile of the same runner (never called: the quick
        # tier's row-at-a-time code is not what csv measures).
        jit.options = tier_options(opts, TIER1)
        _timed_ms(run, "quick_compile_ms", run.call, jit.vm.call, "Bench",
                  "makeRunner", [lines, keys, [0, 0]])
        jit.options = opts
        return jit, runner, acc

    def one_round(i):
        acc[0] = acc[1] = 0
        t0 = perf_counter()
        run.call(runner, 1)
        seconds = perf_counter() - t0
        run.expect(acc, expected, "csv round %d" % i)
        return seconds

    run.begin()
    jit, runner, acc = cold_start(0)
    run.interleave(lambda i: run.harvest(cold_start(i)[0]), one_round)
    run.harvest(jit)


# -- optiml: paper Table 2a-c ----------------------------------------------------

def run_optiml(run):
    plan = run.plan
    k, iters, d, alpha = 4, 3, 8, 0.05
    px, py = kmeans_data(plan.n, k, seed=run.seed)
    cols, y = logreg_data(plan.n, d, seed=run.seed)
    names = names_data(plan.names, seed=run.seed)
    cx, cy = kmeans_cpp(px, py, k, iters)
    apps = (
        ("Kmeans", "kmeans", "run", [px, py, k, iters], [list(cx), list(cy)]),
        ("Logreg", "logreg", "run", [cols, y, iters, alpha],
         list(logreg_cpp(cols, y, iters, alpha))),
        ("Namescore", "namescore", "totalScore", [names],
         namescore_fused(names)),
    )
    run.options = opts = pinned_options(parsafe="enforce")
    cores = os.cpu_count() or 1
    run.diagnostics["delite"] = {"backend": "smp", "cores": cores}
    run.items_per_round = 2 * plan.n * iters + plan.names

    def make():
        jit = Lancet(options=opts)
        jit.delite.configure("smp", cores=cores)
        load_optiml(jit)
        for module, app, _fn, _args, _want in apps:
            load_app(jit, app, module=module)
        for arr in [px, py] + cols + [y]:
            jit.delite.register_data(arr)
        return jit

    def cold_start(i):
        run.phase("cold", i)
        jit = _timed_setup(run, make)
        compiled = []
        t_start = perf_counter()
        for module, _app, _fn, args, want in apps:
            run.request("cold", i, module)
            cf = _timed_ms(run, "compile_ms", run.call, jit.vm.call, module,
                           "makeCompiled", args)
            run.expect(run.call(cf, 0), want, module + " cold", approx=True)
            compiled.append((module, cf, want))
        run.samples["warmup_ms"].append((perf_counter() - t_start) * 1e3)
        for module, _app, fn, _args, _want in apps:
            _quick_compile(run, jit, module, fn)
        return jit, compiled

    def one_round(i):
        t0 = perf_counter()
        results = [run.call(cf, 0) for _module, cf, _want in compiled]
        seconds = perf_counter() - t0
        for (module, _cf, want), got in zip(compiled, results):
            run.expect(got, want, "%s round %d" % (module, i), approx=True)
        return seconds

    run.begin()
    jit, compiled = cold_start(0)
    run.interleave(lambda i: run.harvest(cold_start(i)[0]), one_round)
    run.harvest(jit)


# -- warmup: the tier ladder over a generated corpus -----------------------------

def _reference_vm(source):
    """The bare interpreter: the oracle for generated code."""
    vm = Interpreter()
    vm.load_classes(compile_source(source, module=corpus.MODULE))
    return vm


def _corpus_plan(run, calls, distinct):
    """Generate the corpus, per-method argument tuples (``distinct``
    seeded tuples cycled over ``calls`` calls), and the interpreter's
    result for each tuple."""
    gen = corpus.generate(run.seed, per_cell=run.plan.per_cell,
                          classes=run.plan.classes)
    rng = random.Random("args-%d" % run.seed)
    ref = _reference_vm(gen.source)
    args, want = {}, {}
    for name, shape, cls in gen.methods:
        tuples = corpus.call_args(rng, shape, cls, distinct)
        args[name] = [tuples[k % distinct] for k in range(calls)]
        want[name] = [ref.call(corpus.MODULE, name, list(t))
                      for t in args[name]]
    return gen, args, want


#: On warmup, every LADDER_EVERY-th cold event is a cold VM running the
#: tier ladder; the others compile the next slice of the corpus.
LADDER_EVERY = 5


def run_warmup(run):
    plan = run.plan
    gen, args, want = _corpus_plan(run, calls=12, distinct=3)
    rng = random.Random("subset-%d" % run.seed)
    cells = gen.by_cell()
    # The ladder runs one seeded method per (shape, size) cell.
    ladder = [rng.choice(cells[key]) for key in sorted(cells)]
    names = gen.names()
    run.options = opts = pinned_options()
    # Explicit compiles bypass the unit cache, so every one compiles.
    explicit = [tier_options(pinned_options(unit_cache=False), tier)
                for tier in (TIER1, TIER2)]
    run.items_per_round = len(names)
    run.diagnostics["corpus"] = {"methods": len(names),
                                 "ladder_methods": len(ladder)}

    def make():
        jit = Lancet(options=opts)
        jit.load(gen.source, module=corpus.MODULE)
        return jit

    def ladder_vm(i):
        jit = _timed_setup(run, make)
        results = []
        t0 = perf_counter()
        for name in ladder:
            run.request("cold", i, name)
            tf = jit.compile_tiered(corpus.MODULE, name)
            results.append([run.call(tf, *a) for a in args[name]])
        run.samples["warmup_ms"].append((perf_counter() - t0) * 1e3)
        for name, got in zip(ladder, results):
            run.expect(got, want[name], "ladder " + name)
        run.harvest(jit)

    def compile_slice(k):
        first = (k * plan.slice) % len(names)
        for name in (names + names)[first:first + plan.slice]:
            run.request("compile", k, name)
            for metric, options in zip(("quick_compile_ms", "compile_ms"),
                                       explicit):
                _timed_ms(run, metric, jit.compile_function, corpus.MODULE,
                          name, options)

    def cold_event(i):
        run.phase("cold", i)
        if i % LADDER_EVERY == 0:
            ladder_vm(i // LADDER_EVERY)
        else:
            compile_slice(i - i // LADDER_EVERY - 1)

    # The steady VM: every method compiled at T2 up front. It also makes
    # the explicit compiles, spread over the run between steady blocks.
    run.begin()
    run.phase("compile")
    jit = _timed_setup(run, make)
    fns = [(name, jit.compile_function(corpus.MODULE, name,
                                       options=tier_options(opts, TIER2)),
            args[name][0], want[name][0]) for name in names]

    def one_round(i):
        t0 = perf_counter()
        results = [run.call(fn, *a) for _name, fn, a, _want in fns]
        seconds = perf_counter() - t0
        for (name, _fn, _a, w), got in zip(fns, results):
            run.expect(got, w, "%s round %d" % (name, i))
        return seconds

    run.interleave(cold_event, one_round, cold_done=0)
    run.harvest(jit)


# -- speculate: deopt, invalidation, trace exits and bridges ---------------------

MEGA_SRC = """
class A { def get(x) { return x + 1; } }
class B { def get(x) { return x * 2; } }
class C { def get(x) { return x - 3; } }
def make(k) {
  if (k == 0) { return new A(); }
  if (k == 1) { return new B(); }
  return new C();
}
def work(n) {
  var objs = [make(0), make(1), make(2)];
  var acc = 0;
  var i = 0;
  while (i < n) {
    var o = objs[i % 3];
    acc = acc + o.get(i);
    i = i + 1;
  }
  return acc;
}
"""

MEGA_N = 600
ROUNDS_PER_CYCLE = 10
INSERTS_PER_CYCLE = 8
#: Steady cycles one VM makes before a fresh VM replaces it. A VM keeps
#: every unit it compiled (about 0.75 MB a cycle here), so without the
#: replacement peak memory would grow with the number of cycles a run
#: has time for. 15 cycles span about two tree rebuilds.
VM_CYCLES = 15


def expected_mega(n):
    fns = (lambda x: x + 1, lambda x: x * 2, lambda x: x - 3)
    return sum(fns[i % 3](i) for i in range(n))


def _speculate_vm(opts):
    jit = Lancet(options=opts)
    load_app(jit, "safeint", module="Safeint")
    load_app(jit, "stabletree", module="Stabletree")
    jit.load(MEGA_SRC, module="Mega")
    for field in ("key", "left", "right"):
        jit.mark_stable("Node", field)
    return jit


def stale_lookup_probe():
    """The known stale-lookup failure, outside the measured workload:
    ``CompiledFunction.recompile()`` adopts the fresh code but not the
    ``@stable`` dependencies registered on the throwaway fresh unit, so
    a write that only the recompiled code read never invalidates it.
    Returns (failures, calls) of the two lookups the sequence checks."""
    jit = _speculate_vm(pinned_options())
    root = None
    for key in (50, 20, 80):
        root = jit.vm.call("Stabletree", "insert", [root, key, key])
    look = jit.vm.call("Stabletree", "makeLookup", [root])
    failures = 0
    for key in (10, 5):     # 10 recompiles the lookup; 5 goes stale
        jit.vm.call("Stabletree", "insert", [root, key, key])
        if look(key) != jit.vm.call("Stabletree", "lookup", [root, key]):
            failures += 1
    return failures, 2


class _SpeculateVM:
    """One VM of the speculate workload: a guest search tree with its
    host mirror (the lookup oracle), the compiled product and lookup.
    Tree keys are even, so odd keys are guaranteed misses."""

    def __init__(self, run, rng, opts):
        self.run = run
        self.rng = rng
        self.jit = _timed_setup(run, lambda: _speculate_vm(opts))
        self.root = None
        self.mirror = {}
        self.prod = self.look = None
        self.mega_want = expected_mega(MEGA_N)

    def warm(self):
        """The cold call sequence: compile the product, build the tree,
        compile a lookup over it, and run one cycle."""
        self.prod = self.run.call(self.jit.vm.call, "Safeint", "makeProduct",
                                  [])
        self.rebuild()
        return self.cycle(0)

    def fresh_key(self):
        while True:
            key = 2 * self.rng.randrange(1, 500000)
            if key not in self.mirror:
                return key

    def insert(self, key):
        root = self.run.call(self.jit.vm.call, "Stabletree", "insert",
                             [self.root, key, key * 3])
        if self.root is None:
            self.root = root
        self.run.expect(root, self.root, "insert %d" % key)
        self.mirror[key] = key * 3

    def rebuild(self):
        """A fresh tree of ``plan.tree`` nodes and an explicitly
        compiled lookup over it."""
        self.root = None
        self.mirror = {}
        for __ in range(self.run.plan.tree):
            self.insert(self.fresh_key())
        self.compile_lookup()

    def compile_lookup(self):
        self.look = _timed_ms(self.run, "compile_ms", self.run.call,
                              self.jit.vm.call, "Stabletree", "makeLookup",
                              [self.root])

    def round(self, i):
        run, rng = self.run, self.rng
        # 10% of the products overflow 32 bits and deoptimize; 80% of
        # the lookups hit. Drawn before the timer starts.
        ns = [rng.randint(1, 12) for __ in range(18)] + \
            [rng.randint(13, 20) for __ in range(2)]
        rng.shuffle(ns)
        keys = list(self.mirror)
        queries = [rng.choice(keys) if q % 5 else 2 * rng.randrange(500000) + 1
                   for q in range(40)]
        inserts = ([self.fresh_key() for __ in range(INSERTS_PER_CYCLE)]
                   if i % ROUNDS_PER_CYCLE == 0 else [])
        t0 = perf_counter()
        # Writes to @stable Node fields invalidate the lookup; its next
        # call recompiles against the grown tree.
        for key in inserts:
            self.insert(key)
        products = [run.call(self.prod, n) for n in ns]
        found = [run.call(self.look, key) for key in queries]
        mega = run.call(self.jit.vm.call, "Mega", "work", [MEGA_N])
        seconds = perf_counter() - t0
        for n, got in zip(ns, products):
            run.expect(got, math.factorial(n), "product(%d)" % n)
        for key, got in zip(queries, found):
            run.expect(got, self.mirror.get(key), "lookup(%d)" % key)
        run.expect(mega, self.mega_want, "work(%d)" % MEGA_N)
        if i % ROUNDS_PER_CYCLE == ROUNDS_PER_CYCLE - 1:
            # End of a cycle: compile a fresh lookup over the current
            # tree, so the next cycle's inserts invalidate a unit whose
            # @stable dependencies were all registered on it (see
            # stale_lookup_probe for why a recompiled unit's are not).
            if len(self.mirror) >= 2 * run.plan.tree:
                self.rebuild()
            else:
                self.compile_lookup()
        return seconds

    def cycle(self, c):
        """Cycle ``c`` of rounds; returns the mean seconds per round, so
        the insert round's invalidation and recompile are counted."""
        first = c * ROUNDS_PER_CYCLE
        return sum(self.round(first + r)
                   for r in range(ROUNDS_PER_CYCLE)) / ROUNDS_PER_CYCLE


def run_speculate(run):
    run.options = opts = pinned_options(trace_tier=True)
    run.items_per_round = 20 + 40 + 1

    def cold_start(i):
        # Each VM draws from its own stream, so its inputs depend only on
        # the seed and its index, never on how many steady rounds the
        # steady VM (cold start 0) has made before cold start i.
        run.phase("cold", i)
        rng = random.Random("speculate-%d-%d" % (run.seed, i))
        vm = _SpeculateVM(run, rng, opts)
        t0 = perf_counter()
        vm.warm()
        run.samples["warmup_ms"].append((perf_counter() - t0) * 1e3)
        for module, name in (("Safeint", "product"), ("Stabletree", "lookup"),
                             ("Mega", "work")):
            _quick_compile(run, vm.jit, module, name)
        return vm

    def steady_cycle(n):
        """Steady "round" ``n``: one cycle's mean round (see
        _SpeculateVM.cycle), on a VM replaced every VM_CYCLES cycles."""
        k, c = divmod(n, VM_CYCLES)
        if c == 0 and k > 0:
            run.harvest(steady[0].jit)
            steady[0] = None
            run.phase("steady_vm", k)
            rng = random.Random("speculate-%d-steady-%d" % (run.seed, k))
            steady[0] = _SpeculateVM(run, rng, opts)
            steady[0].warm()
            run.request("steady", n)
        return steady[0].cycle(c + 1)

    run.begin()
    steady = [cold_start(0)]
    run.interleave(lambda i: run.harvest(cold_start(i).jit), steady_cycle)
    run.end()
    run.harvest(steady[0].jit)
    failures, calls = stale_lookup_probe()
    run.diagnostics["stale_lookup_probe"] = {"failures": failures,
                                             "calls": calls}


# -- warm_start: the persistent, sharded code cache ------------------------------

def run_warm_start(run):
    plan = run.plan
    gen, args, want = _corpus_plan(run, calls=4, distinct=2)
    names = gen.names()
    # Short methods (size classes 0 and 1) and a short ladder (T1 on the
    # first call, T2 on the second), so that warm VMs spend their warmup
    # in cache reads rather than in guest code; OSR continuations are
    # never persisted, so OSR is kept off.
    run.options = opts = pinned_options(tier1_threshold=1,
                                        tier2_threshold=2,
                                        osr_threshold=10 ** 9)
    run.items_per_round = len(names)
    os.makedirs(OUT_DIR, exist_ok=True)

    def make(server):
        jit = Lancet(options=opts)
        jit.attach_compile_server(server)
        jit.load(gen.source, module=corpus.MODULE)
        return jit

    def warm_vm(rnd, vm, server):
        run.phase("warm", rnd, "vm%d" % vm)
        jit = _timed_setup(run, lambda: make(server))
        tiered = []
        results = []
        t0 = perf_counter()
        for name in names:
            tf = jit.compile_tiered(corpus.MODULE, name)
            for a in args[name]:
                results.append(run.call(tf, *a))
                server.drain()
            tiered.append((name, tf))
        run.samples["warmup_ms"].append((perf_counter() - t0) * 1e3)
        flat = [(name, w) for name in names for w in want[name]]
        for (name, w), got in zip(flat, results):
            run.expect(got, w, "warm ladder " + name)

        def one_round(i):
            t0 = perf_counter()
            got = [run.call(tf, *args[name][0]) for name, tf in tiered]
            seconds = perf_counter() - t0
            for (name, _tf), g in zip(tiered, got):
                run.expect(g, want[name][0], "%s round %d" % (name, i))
            return seconds

        run.request("steady", rnd, "vm%d" % vm)
        if run.tracer is not None:
            run.interleave(None, one_round, cold_done=plan.cold)
        else:
            for i in range(plan.steady_per_vm):
                run.steady_round(one_round, i)
        run.harvest(jit)

    def store_round(rnd):
        store = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        server = CompileServer(cache_dir=store, workers=0)
        try:
            # Writes: one cold VM compiles and stores every unit.
            run.phase("cold", rnd)
            jit = _timed_setup(run, lambda: make(server))
            for name in names:
                run.request("cold", rnd, name)
                _quick_compile(run, jit, corpus.MODULE, name)
                _timed_ms(run, "compile_ms", jit.compile_function,
                          corpus.MODULE, name, tier_options(opts, TIER2))
            run.harvest(jit)
            # Reads: warm VMs fingerprint and load every unit.
            for vm in range(plan.warm_vms):
                warm_vm(rnd, vm, server)
            run.harvest_server(server)
        finally:
            server.close()
            shutil.rmtree(store, ignore_errors=True)

    # Each store round already alternates writes, reads and steady
    # rounds, so rounds simply repeat until the deadline.
    run.begin()
    rnd = 0
    last = 0.0
    rounds = plan.trace_rounds if run.tracer is not None else None
    while (rnd < rounds if rounds is not None
           else rnd < plan.cold or run.time_left(last)):
        t0 = perf_counter()
        store_round(rnd)
        last = perf_counter() - t0
        rnd += 1
    run.diagnostics["store_rounds"] = rnd


RUNNERS = {
    "csv": run_csv,
    "optiml": run_optiml,
    "warmup": run_warmup,
    "speculate": run_speculate,
    "warm_start": run_warm_start,
}


# -- reporting -------------------------------------------------------------------

def _p99(values):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def end_to_end_metrics(run):
    """Medians of every end-to-end metric, plus the ungated p99 and
    sample count of each timing."""
    metrics, diagnostics = {}, {}
    for name in ("setup_s", "compile_ms", "quick_compile_ms", "warmup_ms",
                 "steady_round_ms"):
        values = run.samples[name]
        metrics[name] = statistics.median(values)
        diagnostics[name] = {"p99": _p99(values), "n": len(values)}
    metrics["steady_items_per_s"] = \
        run.items_per_round / (metrics["steady_round_ms"] / 1e3)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, diagnostics


def run_workload(workload, seed, seconds, trace=False, scale="full"):
    """Run one workload in this process and return its result document.
    With ``trace`` the per-layer metrics replace the end-to-end ones."""
    tracer = spans.Tracer(workload) if trace else None
    run = Run(workload, seed, seconds, PLANS[scale][workload], tracer)
    try:
        RUNNERS[workload](run)
    finally:
        run.end()
    doc = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": bool(trace),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "options": asdict(run.options),
        "plan": asdict(run.plan),
        "diagnostics": run.diagnostics,
    }
    if tracer is None:
        values, doc["timing"] = end_to_end_metrics(run)
    else:
        values = tracer.layer_metrics(run.counters)
        values["trace.overhead_ratio"] = (
            statistics.median(run.traced_rounds)
            / statistics.median(run.untraced_rounds))
        doc["ratio_bases"] = tracer.ratio_bases(run.counters)
        doc["ratio_bases"]["trace.overhead_ratio"] = (
            "untraced steady rounds", len(run.untraced_rounds))
        os.makedirs(OUT_DIR, exist_ok=True)
        doc["spans_file"] = os.path.join(OUT_DIR, workload + ".spans.json")
        tracer.write_spans(doc["spans_file"])
        doc["spans"] = len(tracer.spans)
    doc["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                      for name, value in values.items()}
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(PLANS), default="full")
    a = parser.parse_args(argv)
    doc = run_workload(a.workload, a.seed, a.seconds, a.trace, a.scale)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
