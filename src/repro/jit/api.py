"""The Lancet facade: explicit JIT compilation for MiniJVM programs.

Typical host-side use::

    from repro import Lancet

    jit = Lancet()
    jit.load(minij_source)
    result = jit.vm.call("Main", "main")           # interpreted
    fast = jit.compile_function("Main", "work")     # explicit compilation
    fast(42)                                        # compiled execution

Guest code can equally invoke the JIT itself via ``Lancet.compile(f)``
(the paper's primary mode), plus the whole surgical toolbox: ``freeze``,
``unroll``, ``ntimes``, inlining directives, ``speculate``/``stable``,
``slowpath``/``fastpath``, ``checkNoAlloc``, taint tracking, and the
Delite accelerator macros.
"""

from __future__ import annotations

import dataclasses
import time

from repro.analysis.diagnostics import Diagnostics
from repro.bytecode.verifier import verify_method
from repro.compiler.deopt import reconstruct_frames
from repro.compiler.options import CompileOptions, compile_server_dir
from repro.compiler.stagedinterp import (AbstractFrame, MachineState,
                                         StagedInterpreter)
from repro.errors import (CompilationError, CompilationWarningList,
                          DeoptStateError, GuestTypeError,
                          TranslationValidationError)
from repro.interp.interpreter import Interpreter
from repro.lms.rep import Sym
from repro.macros.registry import MacroRegistry
from repro.observability import CompileReport, Telemetry
from repro.pipeline.backend import CompilationUnit, get_backend
from repro.pipeline.passes import PassManager
from repro.pipeline.tiers import TierController
from repro.runtime.objects import Obj


class Lancet:
    """A VM plus an explicitly-invokable JIT compiler."""

    def __init__(self, vm=None, options=None, telemetry=None):
        self.vm = vm if vm is not None else Interpreter()
        self.vm.jit = self
        self.options = options if options is not None else CompileOptions()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.vm.telemetry = self.telemetry
        self.vm.profiler.telemetry = self.telemetry
        self.macros = MacroRegistry()
        self.macros.telemetry = self.telemetry
        from repro.macros.core import install_core_macros
        install_core_macros(self.macros)
        self.compile_log = []     # (unit name, CompiledFunction)
        from repro.jit.cache import CodeCache
        # Unit cache: one entry per (method, specialization, options); lets
        # repeated compile_function/compile_method calls share code.
        self.unit_cache = CodeCache(telemetry=self.telemetry,
                                    name="unit_cache")
        from repro.delite.runtime import DeliteRuntime
        self.delite = DeliteRuntime(parsafe=self.options.parsafe)
        self.delite.telemetry = self.telemetry
        self.vm.delite = self.delite
        # Tier machinery: unit registry, deopt-driven demotion, and OSR
        # tier-up off interpreter loop back-edges.
        self.tiers = TierController(self)
        # Persistent code cache (warm starts across processes), off by
        # default. Creation is best-effort: a bad cache dir disables
        # persistence, it never fails VM construction.
        self.codecache = None
        if self.options.cache_dir and self.options.persist:
            from repro.codecache import PersistentCodeCache
            self.codecache = PersistentCodeCache(
                self.options.cache_dir, telemetry=self.telemetry)
        # The asynchronous compile queue: a private CompileServer when
        # compile_workers > 0, else a shared one via attach_compile_server()
        # or REPRO_COMPILE_SERVER=<cache-dir> (every such Lancet in the
        # process becomes a tenant of one server over that directory).
        # Without one, every compile is synchronous.
        self.compile_server = None
        self.compile_tenant = None
        self._owns_server = False
        if self.options.compile_workers > 0:
            from repro.server import CompileServer
            self.compile_server = CompileServer(
                workers=self.options.compile_workers,
                telemetry=self.telemetry)
            self.compile_tenant = self.compile_server.register_tenant()
            self._owns_server = True
        self.loaded_sources = []   # (source, module), for manifest export
        server_dir = compile_server_dir()
        if server_dir and not self._owns_server:
            from repro.server import shared_server
            try:
                self.attach_compile_server(shared_server(server_dir))
            except Exception as exc:
                self.telemetry.record("server.attach_failed",
                                      error=str(exc))
        # Tier T, the trace-recording tier: explicit opt-in, like every
        # other piece of policy here.
        if self.options.trace_tier:
            self.enable_trace_tier()

    # -- loading -----------------------------------------------------------------

    def load(self, source, module="Main"):
        from repro.frontend.compiler import compile_source
        classes = self.vm.load_classes(compile_source(source, module=module))
        self.loaded_sources.append((source, module))
        return classes

    def install_macro(self, class_name, method_name, fn):
        self.macros.install(class_name, method_name, fn)

    def install_macros(self, class_name, macros_obj):
        self.macros.install_class(class_name, macros_obj)

    def mark_stable(self, class_name, field_name):
        """Declare ``class.field`` @stable (paper 3.2)."""
        self.vm.linker.mark_stable_field(class_name, field_name)

    # -- explicit compilation (paper Fig. 2: compile[T,U]) --------------------------

    def compile_closure(self, closure, options=None):
        """JIT-compile a guest closure; returns a callable
        :class:`CompiledFunction` specialized to the closure's captured
        state (partial evaluation against live heap objects)."""
        if not isinstance(closure, Obj):
            raise GuestTypeError("compile() needs a guest closure, got %r"
                                 % (closure,))
        method = closure.cls.lookup_method("apply")
        if method is None:
            raise GuestTypeError("compile(): %s has no apply method"
                                 % closure.cls.name)

        def rebuild():
            return self._compile_unit(
                method, receiver=closure, options=options,
                name="%s.apply" % closure.cls.name, recompile=rebuild)

        return rebuild()

    def compile_function(self, class_name, method_name, options=None):
        """JIT-compile a static guest method for dynamic arguments.

        Results are memoized in :attr:`unit_cache` per (method,
        specialization, options) — a second call for the same unit is a
        cache hit, not a recompilation (disable with
        ``CompileOptions(unit_cache=False)``).
        """
        method = self.vm.linker.resolve_static(class_name, method_name)

        def rebuild():
            return self._compile_unit(
                method, receiver=None, options=options,
                name=method.qualified_name, recompile=rebuild)

        return self._cached_unit(method, None, options, rebuild)

    def compile_method(self, class_name, method_name, receiver,
                       options=None):
        """JIT-compile an instance method against a specific receiver.
        Memoized per (method, receiver identity, options) like
        :meth:`compile_function`."""
        cls = self.vm.linker.resolve_class(class_name)
        method = self.vm.linker.resolve_virtual(cls, method_name)

        def rebuild():
            return self._compile_unit(
                method, receiver=receiver, options=options,
                name=method.qualified_name, recompile=rebuild)

        return self._cached_unit(method, receiver, options, rebuild)

    def compile_tiered(self, class_name, method_name, policy=None):
        """Hand a static guest method to the tier ladder (paper 3.1).

        Returns a callable :class:`~repro.pipeline.tiers.TieredFunction`
        that starts interpreted with profiling counters (Tier 0),
        promotes to a quick Tier-1 compile and then the full Tier-2
        optimizing compile as invocation counts cross the policy
        thresholds, tiers up mid-loop via OSR, and demotes on deopt
        storms.
        """
        return self.tiers.tiered_function(class_name, method_name,
                                          policy=policy)

    def prefetch(self, class_name, method_name, tier=None):
        """Warm a unit ahead of use. With an open compile server this
        submits at the lowest priority and returns the request handle.
        **Without one it degrades to a synchronous persistent-cache
        probe**: a warm-start lookup only — a cached unit is rehydrated
        and installed, but a cold miss never triggers a compile. Returns
        the CompiledFunction on a synchronous warm hit, ``None`` on a
        cold miss with no server."""
        from repro.pipeline.tiers import tier_options
        opts = (tier_options(self.options, tier)
                if tier is not None else self.options)
        server = self.async_compiler
        if server is None:
            return self._prefetch_probe(class_name, method_name, opts)
        from repro.server import PRIORITY_PREFETCH
        return server.submit(
            ("prefetch", class_name, method_name, opts.tier),
            lambda: self.compile_function(class_name, method_name,
                                          options=opts),
            priority=PRIORITY_PREFETCH, tenant=self.compile_tenant)

    def _prefetch_probe(self, class_name, method_name, opts):
        """Synchronous prefetch fallback: warm-start lookup only, no
        compile. A hit lands in the unit cache exactly as an async
        prefetch would; a miss returns ``None`` untouched."""
        if self.codecache is None or not opts.unit_cache:
            return None
        try:
            method = self.vm.linker.resolve_static(class_name, method_name)
        except Exception:
            return None
        kind = ("baseline" if self._baseline_eligible(method, None, opts)
                else "unit")
        fingerprint = self.codecache.fingerprint(self, method, opts,
                                                 kind=kind)
        compiled = self.codecache.load(fingerprint, self, kind=kind)
        if compiled is None:
            self.telemetry.record("prefetch.cold", unit="%s.%s"
                                  % (class_name, method_name))
            return None
        self.compile_log.append((compiled.name, compiled))
        key = self._unit_key(method, None, opts)
        return self.unit_cache.get_or_else_update(key, lambda: compiled)

    def attach_compile_server(self, server, tenant=None):
        """Become a tenant of a shared
        :class:`~repro.server.daemon.CompileServer`: this VM's persistent
        cache is replaced by the server's sharded store (one tenant's
        compile is every tenant's warm hit), and async compiles — tier
        promotions, OSR, traces, prefetch — route through the server's
        fair bounded queue. A server this VM owned is closed. Returns
        ``server``.
        """
        if self._owns_server:
            self.compile_server.close()
        self.compile_server = server
        self._owns_server = False
        self.compile_tenant = server.register_tenant(tenant)
        if server.store is not None:
            self.codecache = server.store
        return server

    @property
    def async_compiler(self):
        """The compile server while it is open, else ``None``: callers
        then take the synchronous compile path (or skip). A closed
        server's fallback is counted as ``server.fallback``."""
        server = self.compile_server
        if server is None:
            return None
        if server.closed:
            self.telemetry.inc("server.fallback")
            self.telemetry.record("server.fallback",
                                  tenant=self.compile_tenant)
            return None
        return server

    def export_manifest(self, path):
        """Write this VM's warm-start manifest (loaded sources + compiled
        units) for ``repro serve --warm`` prewarming."""
        from repro.server.manifest import write_manifest
        return write_manifest(self, path)

    def enable_trace_tier(self):
        """Arm Tier T: hot loop back-edges record linear traces that
        compile through the same pipeline and caches as method units
        (see :mod:`repro.pipeline.tracing`). Idempotent; flips the VM
        into profiling mode (back-edge counters feed the policy)."""
        if self.tiers.traces is None:
            from repro.pipeline.tracing import TraceManager
            self.tiers.traces = TraceManager(self)
            self.vm.profile = True
        return self.tiers.traces

    def close(self):
        """Shut down background compilation. Safe to call more than
        once; the VM stays usable (compiles turn synchronous). Closes a
        server this VM owns and only detaches from a shared one — that
        server outlives its tenants by design."""
        if self._owns_server:
            self.compile_server.close()
        self.compile_server = None
        self._owns_server = False

    # -- internals -------------------------------------------------------------------

    def _unit_key(self, method, receiver, options):
        """Unit-cache key: (method, specialization, options). The options
        tuple includes the tier, so each tier's code is a distinct entry —
        tier transitions replace the old entry explicitly."""
        opts = options or self.options
        return (id(method), method.qualified_name,
                id(receiver) if receiver is not None else None,
                opts.key())

    def _baseline_eligible(self, method, receiver, options):
        """Whether this unit takes the template-baseline tier-1 path:
        opted in, Tier 1, a plain static method (no receiver
        specialization), on a CPython the assembler targets."""
        if (options.tier != 1 or not options.baseline
                or receiver is not None or not method.is_static):
            return False
        from repro.baseline import baseline_supported
        return baseline_supported()

    def _cached_unit(self, method, receiver, options, rebuild):
        opts = options or self.options
        if not opts.unit_cache:
            return rebuild()
        key = self._unit_key(method, receiver, opts)
        # Warm-start path: consult the persistent cache before compiling
        # anything. Receiver-specialized units are identity-bound to this
        # process's heap and never persist.
        if self.codecache is not None and receiver is None:
            def coordinated():
                # Only a unit-cache miss pays for the persistent key.
                kind = ("baseline"
                        if self._baseline_eligible(method, None, opts)
                        else "unit")
                fingerprint = self.codecache.fingerprint(self, method, opts,
                                                         kind=kind)

                def load_or_build():
                    compiled = self.codecache.load(fingerprint, self,
                                                   recompile=rebuild,
                                                   kind=kind)
                    if compiled is not None:
                        self.compile_log.append((compiled.name, compiled))
                        return compiled
                    compiled = rebuild()
                    self.codecache.store(fingerprint, compiled, opts)
                    return compiled

                # Cross-VM single-flight: with a compile server, the
                # first tenant to want this fingerprint compiles it;
                # tenants arriving mid-compile wait and rehydrate from
                # the then-warm shared store.
                server = self.compile_server
                if server is None:
                    return load_or_build()
                return server.coordinate(fingerprint, load_or_build,
                                         tenant=self.compile_tenant)

            return self.unit_cache.get_or_else_update(key, coordinated)
        return self.unit_cache.get_or_else_update(key, rebuild)

    def _initial_scope(self, options):
        scope = {"inline": options.inline_policy}
        if options.check_noalloc:
            scope["noalloc"] = True
        if options.check_taint:
            scope["checktaint"] = True
        return scope

    def _compile_unit(self, method, receiver, options=None, name="unit",
                      recompile=None, entry_frames=None, diagnostics=None):
        options = options or self.options
        # Tier-1 routing: eligible units take the template baseline
        # derived from the interpreter's handler table — no staging, no
        # PassManager, no exec-compile. OSR continuations
        # (entry_frames) and analyze() runs always stage: they need
        # mid-method entry / collected diagnostics the templates do not
        # model. BaselineUnsupported degrades to the staged path.
        if (entry_frames is None and diagnostics is None
                and self._baseline_eligible(method, receiver, options)):
            from repro.baseline import BaselineUnsupported, compile_baseline
            try:
                return compile_baseline(self, method, options,
                                        recompile=recompile, name=name)
            except BaselineUnsupported:
                pass
        tel = self.telemetry
        tel.record("compile.start", unit=name, tier=options.tier)
        t_start = time.perf_counter()
        report = CompileReport(name=name, tier=options.tier)
        machine = StagedInterpreter(self.vm, self.macros, options,
                                    telemetry=tel)
        scope = self._initial_scope(options)

        if options.verify_bytecode:
            t0 = time.perf_counter()
            if entry_frames is None:
                verify_method(method)
            else:
                for cf in entry_frames:
                    verify_method(cf.method)
            report.phases["verify_bytecode"] = time.perf_counter() - t0

        if entry_frames is None:
            nparams = method.num_params
            param_names = ["a%d" % (i + 1) for i in range(nparams)]

            def build_entry():
                frame = AbstractFrame(method, scope=dict(scope))
                base = 0
                if not method.is_static:
                    frame.locals[0] = machine.ctx.lift(receiver)
                    base = 1
                for i in range(nparams):
                    frame.locals[base + i] = Sym(param_names[i])
                return MachineState(frame)
        else:
            param_names = []

            def build_entry():
                parent = None
                for cf in entry_frames:
                    af = AbstractFrame(cf.method, parent=parent,
                                       scope=dict(scope))
                    af.bci = cf.bci
                    for i in range(cf.method.num_locals):
                        af.locals[i] = machine.ctx.lift(cf.get_local(i))
                    for v in cf.stack_values():
                        af.push(machine.ctx.lift(v))
                    parent = af
                return MachineState(parent)

        t0 = time.perf_counter()
        result = machine.compile_unit(build_entry, param_names)
        report.phases["staging"] = time.perf_counter() - t0
        report.passes = machine.pass_count
        report.inlines = machine.inline_count
        report.residual_calls = machine.residual_count
        report.guards_installed = machine.guard_count
        report.deopt_sites = machine.deopt_site_count
        report.unroll_clones = machine.unroll_clone_count
        report.macro_expansions = machine.macro_count
        try:
            compiled = self._emit(result, param_names, name, recompile,
                                  fuse=options.delite_fusion, report=report,
                                  options=options, diagnostics=diagnostics)
        except (TranslationValidationError, DeoptStateError) as exc:
            # A speculation-soundness checker rejected the optimized IR.
            # The pipeline mutates IR in place, so re-stage from scratch
            # with the offending pass off (or, when the failure cannot be
            # pinned on one gated pass, with the whole optional set off
            # and validation disarmed — guaranteeing termination).
            return self._revalidate_fallback(exc, method, receiver,
                                             options, name, recompile,
                                             entry_frames, diagnostics)
        if options.warnings_as_errors and result.warnings:
            raise CompilationWarningList(result.warnings)
        report.warnings = len(compiled.warnings)
        compiled.report = report
        compiled.tier = options.tier
        compiled.stable_deps = result.stable_deps
        for obj, field in result.stable_deps:
            obj.add_stable_dep(field, compiled)
        self.compile_log.append((name, compiled))

        total = time.perf_counter() - t_start
        tel.inc("compiles")
        tel.inc("compiles.tier%d" % options.tier)
        tel.observe("compile.tier%d.total" % options.tier, total)
        tel.inc("inlines", machine.inline_count)
        tel.inc("residual_calls", machine.residual_count)
        tel.inc("guards_installed", machine.guard_count)
        tel.inc("deopt_sites", machine.deopt_site_count)
        tel.inc("unroll_clones", machine.unroll_clone_count)
        tel.inc("macro.expansions", machine.macro_count)
        tel.observe("compile.total", total)
        for phase, seconds in report.phases.items():
            tel.observe("compile.phase.%s" % phase, seconds)
        tel.record("compile.end", unit=name, tier=options.tier,
                   seconds=total,
                   passes=report.passes, blocks=report.blocks,
                   stmts=report.stmts, inlines=report.inlines,
                   guards=report.guards_installed,
                   deopt_sites=report.deopt_sites,
                   unroll_clones=report.unroll_clones,
                   warnings=report.warnings)
        return compiled

    def _revalidate_fallback(self, exc, method, receiver, options, name,
                             recompile, entry_frames, diagnostics):
        """Unvalidated-pass-off recompile after a validation reject: turn
        off exactly the pass the translation validator blamed (keeping
        the checkers armed for the retry), or — when the finding cannot
        be attributed to one flag-gated pass — turn off every optional
        pass and the checkers themselves."""
        from repro.pipeline.passes import _PASS_FLAG
        pass_name = getattr(exc, "pass_name", "")
        flag = _PASS_FLAG.get(pass_name)
        self.telemetry.inc("validate.rejects")
        self.telemetry.record("validate.reject", unit=name,
                              pass_name=pass_name, error=str(exc))
        if isinstance(exc, TranslationValidationError) and flag:
            safe = dataclasses.replace(options, **{flag: False})
        else:
            safe = dataclasses.replace(
                options, opt_gvn=False, opt_licm=False,
                opt_scalar_replace=False, opt_range_guards=False,
                validate_passes=False, verify_deopt=False)
        return self._compile_unit(method, receiver, options=safe,
                                  name=name, recompile=recompile,
                                  entry_frames=entry_frames,
                                  diagnostics=diagnostics)

    def _emit(self, result, param_names, name, recompile, fuse=True,
              report=None, options=None, diagnostics=None):
        options = options or self.options
        if fuse:
            t0 = time.perf_counter()
            from repro.delite.fusion import fuse_delite
            fuse_delite(result.blocks, jit=self, diagnostics=diagnostics)
            if report is not None:
                report.phases["fusion"] = time.perf_counter() - t0
        # The PassManager owns all IR-level optimization (block fusion,
        # DCE, guard elimination) plus the verify/taint/alloc passes, per
        # the tier's declarative pass list; the backend runs with
        # optimize=False and never re-cleans the CFG itself.
        manager = PassManager(options, telemetry=self.telemetry,
                              diagnostics=diagnostics)
        manager.run(result, name, report=report)
        unit = CompilationUnit(result=result, name=name, jit=self,
                               recompile=recompile, report=report,
                               options=options)
        return get_backend("python").emit(unit)

    def _osr_execute(self, meta, lives):
        """``fastpath``: compile the captured continuation with the current
        values as compile-time constants, then run it (paper 3.2)."""
        leaf = reconstruct_frames(meta, lives)
        frames = []
        f = leaf
        while f is not None:
            frames.append(f)
            f = f.parent
        frames.reverse()
        self.telemetry.inc("osr.compiles")
        self.telemetry.record("osr.compile",
                              method=leaf.method.qualified_name,
                              bci=leaf.bci)
        try:
            compiled = self._compile_unit(
                leaf.method, receiver=None, name="osr@%s:%d"
                % (leaf.method.qualified_name, leaf.bci),
                entry_frames=frames)
        except CompilationError:
            # Recompilation failed; fall back to interpreting.
            leaf = reconstruct_frames(meta, lives)
            return self.vm.run_frames(leaf)
        return compiled()

    # -- JIT lint ----------------------------------------------------------------

    def analyze(self, target, method_name=None, options=None):
        """Run the IR analysis pipeline in *collect* mode ("JIT lint").

        ``target`` is either a class name (then ``method_name`` names a
        static method) or a guest closure ``Obj``. The unit is compiled
        with ``verify_ir`` on; instead of raising, taint leaks, residual
        allocations/deopt points, verifier errors, and compile warnings
        become findings on the returned
        :class:`~repro.analysis.diagnostics.Diagnostics`.
        """
        opts = dataclasses.replace(options or self.options,
                                   verify_ir=True, unit_cache=False,
                                   validate_passes=True, verify_deopt=True)
        if isinstance(target, Obj):
            method = target.cls.lookup_method("apply")
            if method is None:
                raise GuestTypeError("analyze(): %s has no apply method"
                                     % target.cls.name)
            receiver = target
            name = "%s.apply" % target.cls.name
        else:
            method = self.vm.linker.resolve_static(target, method_name)
            receiver = None
            name = method.qualified_name
        diag = Diagnostics(unit=name)
        try:
            self._compile_unit(method, receiver=receiver, options=opts,
                               name=name, diagnostics=diag)
        except CompilationError as exc:
            # Collect-mode analyses never raise; anything that still does
            # (freeze/unroll/inline failures, ...) becomes a finding too.
            diag.add("error", "compile", str(exc))
        return diag

    # -- aggregated statistics ---------------------------------------------------

    def stats(self):
        """Aggregate observability snapshot for this VM: compile counts and
        per-phase timings, cache traffic, speculation outcomes, and the
        per-unit :class:`~repro.observability.CompileReport` list."""
        m = self.telemetry.metrics
        compile_total = m.timing("compile.total")
        phases = {}
        for tname in list(m.timings()):
            if tname.startswith("compile.phase."):
                phases[tname[len("compile.phase."):]] = m.timing(tname)
        caches = {}
        for cname in ("unit_cache", "jit_cache"):
            probes = {
                "hits": m.get("cache.%s.hits" % cname),
                "misses": m.get("cache.%s.misses" % cname),
                "evictions": m.get("cache.%s.evictions" % cname),
            }
            if any(probes.values()):
                caches[cname] = probes
        tier_timings = {}
        for t in (1, 2, 3):
            timing = m.timing("compile.tier%d.total" % t)
            if timing:
                tier_timings[t] = timing
        # Per-tier compile-latency aggregates (count/total/min/max/mean),
        # the observable form of the baseline-vs-staged latency claim.
        # "baseline" overlaps tier 1: it is the subset of tier-1
        # compiles that took the template path.
        latency = {}
        for label, tname in (("tier1", "compile.tier1.total"),
                             ("tier2", "compile.tier2.total"),
                             ("trace", "compile.tier3.total"),
                             ("baseline", "compile.baseline.total")):
            timing = m.timing(tname)
            if timing:
                latency[label] = timing
        compiles_by_tier = {t: m.get("compiles.tier%d" % t) for t in (1, 2)}
        if m.get("compiles.tier3"):
            compiles_by_tier[3] = m.get("compiles.tier3")  # trace tier
        tiers = {
            "compiles_by_tier": compiles_by_tier,
            "promotions": m.get("tier.promotions"),
            "demotions": m.get("tier.demotions"),
            "blacklists": m.get("tier.blacklists"),
            "osr_tier_ups": m.get("tier.osr_up"),
            "timings": tier_timings,
            "latency": latency,
            "units": self.tiers.snapshot(),
        }
        if self.codecache is not None:
            codecache = self.codecache.stats()
        else:
            codecache = {"enabled": False,
                         "hits": m.get("codecache.hits"),
                         "misses": m.get("codecache.misses")}
        return {
            "compiles": m.get("compiles"),
            "compile_seconds": (compile_total or {}).get("total", 0.0),
            "compile_timing": compile_total,
            "phase_timings": phases,
            "cache_hits": m.get("cache.hits"),
            "cache_misses": m.get("cache.misses"),
            "cache_evictions": m.get("cache.evictions"),
            "caches": caches,
            "guards_installed": m.get("guards_installed"),
            "guard_failures": m.get("guard_failures"),
            "deopts": m.get("deopts"),
            "deopt_sites": m.get("deopt_sites"),
            "osr_compiles": m.get("osr.compiles"),
            "tiers": tiers,
            "traces": (self.tiers.traces.snapshot()
                       if self.tiers.traces is not None
                       else {"enabled": False}),
            "codecache": codecache,
            "server": (dict(self.compile_server.stats(),
                            tenant=self.compile_tenant,
                            fallbacks=m.get("server.fallback"))
                       if self.compile_server is not None
                       else None),
            "invalidations": m.get("invalidations"),
            "inlines": m.get("inlines"),
            "residual_calls": m.get("residual_calls"),
            "unroll_clones": m.get("unroll_clones"),
            "macro_expansions": m.get("macro.expansions"),
            "delite_kernels": m.get("delite.kernels"),
            "interp_invocations": m.get("interp.invocations"),
            "units": [name for name, _ in self.compile_log],
        }
