"""Span tracer for the ``--trace`` run: wraps each layer's public entry
points from the outside, keeps the spans in memory, and reduces them to
the per-layer metrics declared in ``BENCHMARK.json``.

The measured (untraced) run never installs a wrapper: they exist only
between :meth:`Tracer.install` and :meth:`Tracer.uninstall`, which puts
the original attributes back.

Self time is a span's duration minus the time its child spans cover.
Spans nest properly because every workload runs on one thread.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

perf_counter = time.perf_counter

#: The nine optimisation passes as the PassManager binds them in
#: ``repro.pipeline.passes`` (span name suffix -> bound function name).
PASS_FUNCTIONS = (
    ("fuse", "fuse_blocks"),
    ("gvn", "global_value_numbering"),
    ("licm", "hoist_loop_invariants"),
    ("sink", "sink_allocations"),
    ("range", "prune_range_guards"),
    ("dce", "eliminate_dead"),
    ("guards", "eliminate_redundant_guards"),
    ("taint", "find_leaks"),
    ("alloc", "check_noalloc"),
)

#: Entry points that are counted but never timed. ``invoke_method`` is
#: only counted so that ``interp.resumes`` (frames resumed after a deopt
#: or a trace exit, rather than entered by a call) can be derived.
COUNT_ONLY = {"interp.invoke"}

#: Timed entry points demoted to count-only on one workload because
#: timing them pushed its steady round past 1.25x the untraced time. On
#: optiml the Delite runtime calls compiled element kernels about 13k
#: times a round; timing each made the round 1.39x slower. Their time
#: stays in ``delite.self_ms``.
DEMOTED = {"optiml": {"generated"}}


def _cfg_stmts(blocks):
    return sum(len(b.stmts) for b in blocks.values())


def _entry_points():
    """(span name, owner module[:class], attribute, before, after) for
    every wrapped entry point. ``before(args)`` returns state handed to
    ``after(tracer, args, result, state)``, which may add to the
    tracer's extra counters."""

    def stmts_before(args):
        return _cfg_stmts(args[1].blocks)

    def stmts_removed(tracer, args, result, before):
        tracer.extra["passes.stmts_removed"] += \
            before - _cfg_stmts(args[1].blocks)

    def ir_stmts(tracer, args, result, state):
        tracer.extra["staging.ir_stmts"] += _cfg_stmts(result.blocks)

    def source_bytes(tracer, args, result, state):
        tracer.extra["codegen.source_bytes"] += len(result.source or "")

    points = [
        ("frontend", "repro.frontend.compiler", "compile_source"),
        ("interp.call", "repro.interp.interpreter:Interpreter", "call"),
        ("interp.run", "repro.interp.interpreter:Interpreter", "run_frames"),
        ("interp.invoke", "repro.interp.interpreter:Interpreter",
         "invoke_method"),
        ("staging", "repro.compiler.stagedinterp:StagedInterpreter",
         "compile_unit", None, ir_stmts),
        ("fusion", "repro.delite.fusion", "fuse_delite"),
        ("passes", "repro.pipeline.passes:PassManager", "run",
         stmts_before, stmts_removed),
    ]
    points += [("pass." + short, "repro.pipeline.passes", fn)
               for short, fn in PASS_FUNCTIONS]
    points += [
        ("codegen", "repro.pipeline.backend:PythonBackend", "emit", None,
         source_bytes),
        ("baseline", "repro.baseline", "compile_baseline"),
        ("generated", "repro.compiler.compiled:CompiledFunction",
         "__call__"),
        ("deopt", "repro.compiler.compiled", "reconstruct_frames"),
        ("deopt", "repro.jit.api", "reconstruct_frames"),
        ("recompile", "repro.compiler.compiled:CompiledFunction",
         "recompile"),
        ("recompile", "repro.baseline.compiler:BaselineFunction",
         "recompile"),
        ("tracing.close", "repro.pipeline.tracing:TraceManager",
         "close_at_anchor"),
        ("tracing.close", "repro.pipeline.tracing:TraceManager",
         "close_with_return"),
        ("unit_cache", "repro.jit.cache:CodeCache", "get_or_else_update"),
        ("codecache.fingerprint", "repro.codecache.store:PersistentCodeCache",
         "fingerprint"),
        ("codecache.fingerprint", "repro.server.shards:ShardedCodeCache",
         "fingerprint"),
        ("codecache.load", "repro.codecache.store:PersistentCodeCache",
         "load"),
        ("codecache.store", "repro.codecache.store:PersistentCodeCache",
         "store"),
        ("server.submit", "repro.server.daemon:CompileServer", "submit"),
        ("server.drain", "repro.server.daemon:CompileServer", "drain"),
        ("server.coordinate", "repro.server.daemon:CompileServer",
         "coordinate"),
        ("delite", "repro.delite.runtime:DeliteRuntime", "run"),
    ]
    return [p + (None,) * (5 - len(p)) for p in points]


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.t0 = perf_counter()
        self.requests = []            # request id -> (workload, phase, round, unit)
        self._request_index = {}
        self.request = self._intern(("setup", 0, ""))
        self.spans = []               # (id, name, start, end, parent id, request id)
        self.self_time = Counter()    # span name -> seconds
        self.calls = Counter()        # span name -> calls
        self.extra = Counter()        # derived counters (bytes, statements)
        self._stack = []              # [span id, start, child seconds]
        self._next_id = 0
        self._patches = []
        self.count_only = COUNT_ONLY | DEMOTED.get(workload, set())

    # -- request identity ------------------------------------------------------

    def _intern(self, key):
        rid = self._request_index.get(key)
        if rid is None:
            rid = len(self.requests)
            self.requests.append((self.workload,) + key)
            self._request_index[key] = rid
        return rid

    def set_request(self, phase, rnd, unit=""):
        self.request = self._intern((phase, rnd, unit))

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, before, after):
        stack = self._stack
        spans = self.spans
        self_time = self.self_time
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_time[name] += duration - frame[2]
                calls[name] += 1
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                spans.append((span_id, name, frame[1], end, parent,
                              tracer.request))
            if after is not None:
                after(tracer, args, result, state)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._patches:
            return
        for name, path, attr, before, after in _entry_points():
            owner = _owner(path)
            original = owner.__dict__[attr]
            if name in self.count_only:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, before, after)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        t0 = self.t0
        doc = {
            "workload": self.workload,
            "fields": ["id", "name", "start_ms", "end_ms", "parent",
                       "request"],
            "request_fields": ["workload", "phase", "round", "unit"],
            "requests": self.requests,
            "spans": [[sid, name, (start - t0) * 1e3, (end - t0) * 1e3,
                       parent, rid]
                      for sid, name, start, end, parent, rid in self.spans],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)

    def layer_metrics(self, counters):
        """The per-layer metrics: span-derived values from this tracer
        plus ``counters``, the summed public stats of every VM, server
        and Delite runtime the workload created."""
        ms = {name: seconds * 1e3 for name, seconds in self.self_time.items()}
        calls = self.calls
        c = counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "frontend.calls": calls["frontend"],
            "frontend.self_ms": ms.get("frontend", 0.0),
            "interp.calls": calls["interp.call"],
            "interp.resumes": max(0, calls["interp.run"]
                                  - calls["interp.invoke"]),
            "interp.self_ms": ms.get("interp.call", 0.0)
            + ms.get("interp.run", 0.0),
            "staging.calls": calls["staging"],
            "staging.self_ms": ms.get("staging", 0.0),
            "staging.ir_stmts": self.extra["staging.ir_stmts"],
            "macros.expansions": c["macro_expansions"],
            "fusion.self_ms": ms.get("fusion", 0.0),
            "passes.self_ms": ms.get("passes", 0.0),
        }
        for short, _fn in PASS_FUNCTIONS:
            out["pass.%s.self_ms" % short] = ms.get("pass." + short, 0.0)
        out.update({
            "passes.stmts_removed": self.extra["passes.stmts_removed"],
            "codegen.calls": calls["codegen"],
            "codegen.self_ms": ms.get("codegen", 0.0),
            "codegen.source_bytes": self.extra["codegen.source_bytes"],
            "baseline.calls": calls["baseline"],
            "baseline.self_ms": ms.get("baseline", 0.0),
            "generated.calls": calls["generated"],
            "generated.self_ms": ms.get("generated", 0.0),
            "deopt.count": c["deopts"],
            "deopt.self_ms": ms.get("deopt", 0.0),
            "recompile.calls": calls["recompile"],
            "recompile.self_ms": ms.get("recompile", 0.0),
            "invalidations": c["invalidations"],
            "tiers.promotions": c["tiers.promotions"],
            "tiers.osr_up": c["tiers.osr_up"],
            "tiers.demotions": c["tiers.demotions"],
            "tracing.recordings": c["traces.recordings"],
            "tracing.aborts": c["traces.aborts"],
            "tracing.compiles": c["traces.compiles"],
            "tracing.compile_self_ms": ms.get("tracing.close", 0.0),
            "tracing.stitches": c["traces.stitches"],
            "tracing.exits": c["traces.exits"],
            "unit_cache.probes": calls["unit_cache"],
            "unit_cache.hit_ratio": ratio(
                c["unit_cache.hits"],
                c["unit_cache.hits"] + c["unit_cache.misses"]),
            "codecache.loads": calls["codecache.load"],
            "codecache.load_self_ms": ms.get("codecache.load", 0.0),
            "codecache.stores": calls["codecache.store"],
            "codecache.store_self_ms": ms.get("codecache.store", 0.0),
            "codecache.fingerprint_self_ms":
                ms.get("codecache.fingerprint", 0.0),
            "codecache.hit_ratio": ratio(
                c["codecache.hits"],
                c["codecache.hits"] + c["codecache.misses"]),
            "server.submits": calls["server.submit"],
            "server.drain_self_ms": ms.get("server.drain", 0.0),
            "server.coordinate_self_ms": ms.get("server.coordinate", 0.0),
            "server.dedup_waits": c["server.dedup_waits"],
            "server.shed": c["server.shed"],
            "delite.launches": calls["delite"],
            "delite.self_ms": ms.get("delite", 0.0),
            "delite.fused_ratio": ratio(c["delite.fused_ops"],
                                        c["delite.ops"]),
            "delite.parsafe_fallbacks": c["delite.parsafe_fallbacks"],
            "compiles": c["compiles"],
            "compiles.tier1": c["compiles.tier1"],
            "compiles.tier2": c["compiles.tier2"],
        })
        return out

    def ratio_bases(self, counters):
        """The denominator behind each ratio metric, for printing."""
        c = counters
        return {
            "unit_cache.hit_ratio": ("probes", c["unit_cache.hits"]
                                     + c["unit_cache.misses"]),
            "codecache.hit_ratio": ("lookups", c["codecache.hits"]
                                    + c["codecache.misses"]),
            "delite.fused_ratio": ("launches", c["delite.ops"]),
        }
