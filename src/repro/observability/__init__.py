"""Structured JIT observability: event tracing, metrics, compile reports.

The paper's promise is *surgical control* over JIT behaviour; this package
makes that behaviour observable, so tests and benchmarks can assert on
what the compiler did (inlined, guarded, deoptimized, cached) rather than
only on end results.

One :class:`Telemetry` object is owned by each :class:`~repro.jit.api.Lancet`
and threaded through the pipeline (interpreter, staged interpreter, code
caches, macro registry, Delite runtime). It bundles:

* an :class:`EventTrace` — a bounded ring buffer of typed events with
  JSONL export, **disabled by default** (recording is a flag test when off);
* a :class:`Metrics` registry — always-on counters and timing summaries,
  touched only at rare pipeline events (never in generated code or the
  interpreter dispatch loop);
* per-unit :class:`CompileReport` objects attached to every compiled
  function and aggregated by ``Lancet.stats()``.

Event kinds emitted by the built-in instrumentation::

    compile.start / compile.phase / compile.end
                             (``compile.phase`` with ``phase="staging"``
                             is one staging pass: ``pass_num``;
                             ``changed``, True when another pass follows;
                             ``cause`` of that restart, one of
                             ``loop_header``, ``join`` or ``static_write``
                             (None on the last pass); ``generated``, the
                             blocks staged by this and earlier passes;
                             ``kept``, the blocks the unit keeps (0 on a
                             restarted pass). ``compile.phase`` with
                             ``phase="codegen"`` carries ``structured``:
                             False when the unit fell back to label
                             dispatch, counted as ``codegen.unstructured``,
                             with the reason in ``fallback``)
    inline.decision          (action: inline | residual, policy)
    unroll.clone             (polyvariant loop-header cloning)
    guard.install            (speculation guards: kind, reason)
    deopt.site               (slowpath / fastpath sites)
    deopt                    (a runtime guard failure / OSR-out)
    osr.compile              (fastpath continuation recompilation)
    invalidate               (stable-field / manual invalidation)
    cache.hit / cache.miss / cache.evict / cache.flush
    macro.expand
    delite.launch
    delite.chunk_fallback    (a per-element kernel launch that did not run
                             as a generated chunk loop: kernel, reason;
                             counter ``delite.chunk_fallbacks``)
    parsafe.verdict          (one parallel-safety verdict per Delite op:
                             status, deciding checker, blame provenance)
    parsafe.fallback         (unproven op demoted from smp/gpu to seq;
                             counter ``parsafe.fallbacks``)
    parsafe.race             (write sanitizer found overlapping chunk
                             footprints; counters ``parsafe.checks`` /
                             ``parsafe.races``)
    fusion.reject            (fusion rewrite refused by the legality
                             checker: kind, checker, kernels; counter
                             ``fusion.rejects``)
    fusion.recheck_fail      (a performed rewrite failed the post-hoc
                             legality re-check)
    analysis.report          (per-unit IR analysis summary)
    analysis.verify_fail     (IR verifier found a malformed CFG)
    pass.run                 (one PassManager pass: timing, CFG deltas;
                             ``range`` adds ``transfers``, the range
                             solver's block-transfer count)
    tier.promote / tier.demote   (tier-ladder transitions, with tiers)
    osr.tier_up              (hot loop back-edge tiered up mid-execution)
    codecache.hit / codecache.miss   (persistent-cache warm/cold lookups)
    codecache.store / codecache.skip (entry persisted / unpersistable)
    codecache.quarantine     (corrupt on-disk entry sidelined, clean miss)
    codecache.evict / codecache.invalidate  (size-budget LRU, stale code)
    server.attach            (a Lancet VM became a tenant, of its own
                             or a shared CompileServer)
    server.attach_failed     (REPRO_COMPILE_SERVER named a server the
                             new VM could not join; it runs without one)
    server.submit / server.done / server.fail / server.discard
                             (compile-queue lifecycle; the queue depth
                             is the ``server.queue_depth`` gauge, and
                             ``stats()["server"]`` includes the
                             blacklisted keys)
    server.run               (timing: seconds a completed request's
                             compile ran on its worker)
    server.callback_error    (a request's on_complete or on_error
                             callback raised; the worker survives)
    server.fallback          (the VM's server is closed: the compile
                             runs synchronously instead; counted)
    server.dedup_wait        (cross-VM dedup: a synchronous tenant
                             waited on another tenant's in-flight
                             compile of the same fingerprint)
    server.shed / server.reject  (admission control: backpressure drop;
                             queue-full, per-tenant-cap or blacklisted
                             refusal)
    server.close
    codecache.hits.<kind> / codecache.misses.<kind>
                             (per-kind warm-start attribution counters,
                             kind in unit | baseline | trace; surfaced
                             as ``stats()["codecache"]["by_kind"]``)
"""

from __future__ import annotations

from repro.observability.events import Event, EventTrace, load_jsonl
from repro.observability.metrics import Metrics
from repro.observability.report import CompileReport


class Telemetry:
    """The per-VM observability hub: an event trace plus a metrics registry.

    Tracing is off by default; counters are always on (they only fire at
    compile/deopt/cache-probe granularity). ``record``/``inc``/``observe``
    are the three entry points instrumentation calls.
    """

    def __init__(self, trace_capacity=4096, trace_enabled=False):
        self.trace = EventTrace(capacity=trace_capacity,
                                enabled=trace_enabled)
        self.metrics = Metrics()

    # -- trace switch ----------------------------------------------------------

    @property
    def enabled(self):
        """Whether event *tracing* is on (counters are always on)."""
        return self.trace.enabled

    def enable_trace(self):
        self.trace.enabled = True
        return self

    def disable_trace(self):
        self.trace.enabled = False
        return self

    # -- recording -------------------------------------------------------------

    def record(self, kind, /, **data):
        """Record a trace event (no-op unless tracing is enabled)."""
        if not self.trace.enabled:
            return None
        return self.trace.record(kind, **data)

    def inc(self, name, n=1):
        self.metrics.inc(name, n)

    def observe(self, name, seconds):
        self.metrics.observe(name, seconds)

    def set_gauge(self, name, value):
        self.metrics.set_gauge(name, value)

    # -- convenience -----------------------------------------------------------

    def events(self, kind=None):
        return self.trace.events(kind)

    def export_jsonl(self, path_or_file):
        return self.trace.export_jsonl(path_or_file)

    def reset(self):
        self.trace.clear()
        self.metrics.reset()


__all__ = ["Telemetry", "Event", "EventTrace", "Metrics", "CompileReport",
           "load_jsonl"]
