"""Tier-T: the trace-recording tier, amalgamated with the method ladder.

The method tiers (0/1/2) compile whole methods; this module adds a
PyPy-style *trace* tier following the Izawa et al. amalgamation papers
(see PAPERS.md). When a loop back-edge gets hot, the interpreter's
dispatch loop flips into *recording mode* (the ``can_enter_jit`` /
``jit_merge_point`` pair collapses to one hook at the back-edge) for one
concrete iteration. The recording keeps only what must be observed
concretely: each branch condition's truth and each virtual call's
receiver class. The staged interpreter — the engine that compiles
methods — then stages that one path (:meth:`StagedInterpreter.
stage_trace`), inlining through guest calls and guarding wherever it
follows the log instead of a proof.

The result is ordinary staged IR: a two-block CFG (prologue + loop body
whose back-edge jumps to itself) with ``DeoptMeta`` snapshots at every
guard. It flows through the same PassManager, Python backend, unit cache,
compile server and persistent code cache as a method unit. A guard
failure is an ordinary deopt that rebuilds interpreter frames *rooted at
the loop method*, so a trace exit completes the method like any deopt.

A hot side exit triggers *bridge recording*: the interpreter resumes from
the deopt while a recording logs its path until it reaches the loop
header again or returns from the loop method. The bridge stages from the
failed guard's snapshot and is *stitched* into the trace CFG — the guard
becomes a ``Branch`` whose off-side is the bridge block — and the unit
recompiles. On megamorphic call sites this grows a chain of class-guard
bridges: an emergent polymorphic inline cache. Exits that stay hot past
the exit budget blacklist the trace back to the interpreter/method ladder.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.liveness import live_at
from repro.bytecode.opcodes import Op
from repro.compiler.stagedinterp import (AbstractFrame, CompileResult,
                                         MachineState, StagedInterpreter,
                                         TraceAbort, trace_inlines)
from repro.errors import ReproError
from repro.lms.ir import Block, Branch, Jump, Return, Stmt
from repro.lms.rep import Sym
from repro.macros.registry import MacroRegistry
from repro.observability import CompileReport
from repro.pipeline.tiers import TIER_T, tier_options
from repro.runtime.objects import Obj

#: Per-site failed-recording budget before the site is never traced again.
ABORT_BUDGET = 5

#: Traces stage with no macros: a trace follows the calls the
#: interpreter made, and the interpreter expands none.
_NO_MACROS = MacroRegistry()


def trace_options(base):
    """The CompileOptions a trace unit compiles under (Tier T)."""
    return tier_options(base, TIER_T)


class TraceRecording:
    """One in-progress recording (a root loop trace or a bridge).

    ``record`` is called by the interpreter dispatch loop *before* each
    instruction executes, so concrete operands (branch conditions,
    receiver objects) are still on the real operand stack to peek at.
    ``frames`` is the recorded chain: the root (loop) frame and the
    callees a trace inlines (:func:`trace_inlines`). For its frames the
    recording logs each ``JIF_*`` condition's truth and each ``INVOKE``
    receiver's class, tagged with frame depth, method and bci; frames of
    a call the trace leaves residual pass unlogged. It closes where the
    root frame is back at the loop header (or, for a bridge, returns),
    and aborts past ``trace_max_ops`` recorded instructions or when an
    instruction raises a guest error: traces never capture error paths.
    """

    def __init__(self, manager, mode, root_method, header_bci, frames):
        self.manager = manager
        self.mode = mode                  # "loop" | "bridge"
        self.root_method = root_method
        self.header_bci = header_bci
        self.frames = frames              # root -> leaf; a bridge's fills in
        self.prefix = None                # sym prefix, unique per recording
        self.log = []
        self.ops = 0
        self.done = False
        self.live_slots = ()              # set by the manager
        self.trace = None                 # bridge mode: the LoopTrace
        self.bridge_meta_id = None        # bridge mode: the exit bridged
        self.meta = None                  # bridge mode: its DeoptMeta
        self.lives = ()                   # bridge mode: its guard's lives
        self._calling = False             # the leaf frame is in a call

    def record(self, frame, ins, bci):
        if self.done:
            return
        try:
            self._step(frame, ins, bci)
        except TraceAbort as abort:
            self.manager.abort(self, str(abort))
        except Exception as exc:  # defensive: never break interpretation
            self.manager.abort(self, "recorder error: %r" % exc)

    def on_error(self, exc):
        """The recorded instruction raises ``exc``: give up the trace."""
        self.manager.abort(self, "guest error: %s" % exc)

    def _step(self, frame, ins, bci):
        frames = self.frames
        if not frames:
            # A bridge's first instruction: the frames its deopt resumed.
            f = frame
            while f is not None:
                frames.insert(0, f)
                f = f.parent
        elif frame is not frames[-1]:
            if frame in frames:                  # callees returned
                del frames[frames.index(frame) + 1:]
            elif not self._calling:
                raise TraceAbort("desync at %s@%d"
                                 % (frame.method.qualified_name, bci))
            elif frame.parent is frames[-1] \
                    and trace_inlines(frames, frame.method):
                frames.append(frame)
            else:
                return           # inside a call the trace leaves residual
        op = ins.op
        depth = len(frames) - 1
        if depth == 0:
            if (bci == self.header_bci and self.ops) or \
                    (op is Op.JUMP and ins.arg == self.header_bci):
                self.manager.close_at_anchor(self)
                return
            if op is Op.RET or op is Op.RET_VAL:
                if self.mode == "loop":
                    raise TraceAbort("loop exited through return")
                self.manager.close_with_return(self)
                return

        self.ops += 1
        if self.ops > self.manager.options.trace_max_ops:
            raise TraceAbort("trace too long")
        self._calling = op is Op.INVOKE or op is Op.INVOKE_STATIC
        if op is Op.JIF_TRUE or op is Op.JIF_FALSE:
            self.log.append((depth, frame.method, bci, bool(frame.peek())))
        elif op is Op.INVOKE:
            receiver = frame.peek(ins.arg[1])
            self.log.append((depth, frame.method, bci,
                             receiver.cls if isinstance(receiver, Obj)
                             else None))


class LoopTrace:
    """One compiled loop trace (plus its bridges) anchored at a loop
    header. ``result`` stays attached so hot guard exits can be stitched;
    traces reloaded from the persistent cache have no IR and never grow
    bridges (``result is None``)."""

    def __init__(self, manager, site, method, header_bci, live_slots):
        self.manager = manager
        self.site = site
        self.method = method
        self.header_bci = header_bci
        self.live_slots = tuple(live_slots)
        self.result = None          # CompileResult (None once blacklisted
        self.compiled = None        # or when loaded from disk)
        self.cache_key = None
        self.fingerprint = None
        self.exits = Counter()      # meta_id -> count
        self.total_exits = 0
        self.bridged = set()        # meta ids stitched
        self.bridge_failed = set()  # meta ids we gave up bridging
        self.blacklisted = False

    def on_exit(self, meta_id):
        """Called by ``CompiledFunction._deoptimize`` before resuming the
        interpreter, so a hot exit can arm bridge recording in time to
        log the resumed execution."""
        self.manager.on_trace_exit(self, meta_id)

    def __repr__(self):
        return "<LoopTrace %s:%d (%s, %d exits, %d bridges)>" % (
            self.site[0], self.site[1],
            "compiled" if self.compiled else "pending",
            self.total_exits, len(self.bridged))


class TraceManager:
    """Per-Lancet Tier-T machinery: recording policy, trace compilation,
    side-exit accounting, bridge stitching, and blacklisting."""

    def __init__(self, jit):
        self.jit = jit
        self.vm = jit.vm
        self.telemetry = jit.telemetry
        self.enabled = True
        self.traces = {}             # (qualified name, header bci) -> LoopTrace
        self.recording = None
        self._blacklist = set()      # sites never to trace again
        self._aborts = Counter()     # site -> failed recordings
        self._gen = 0                # sym-prefix generation counter

    @property
    def options(self):
        return self.jit.options

    def trace_options(self):
        return trace_options(self.jit.options)

    # -- back-edge policy ------------------------------------------------------

    def on_backedge(self, controller, vm, frame):
        """Called from TierController.on_backedge (before the method-OSR
        path). Returns a continuation entering the compiled trace, or
        None to keep interpreting."""
        if not self.enabled or self.recording is not None:
            return None
        method = frame.method
        site = (method.qualified_name, frame.bci)
        trace = self.traces.get(site)
        if trace is not None:
            if trace.compiled is None or trace.blacklisted:
                return None
            if frame.tos != method.num_locals:
                return None
            return self._entry(trace, vm, frame)
        if site in self._blacklist:
            return None
        if frame.tos != method.num_locals:
            return None
        if vm.profiler.backedge_count(*site) < self.options.trace_threshold:
            return None
        owner = controller.unit(site[0])
        if (owner is not None and not owner.blacklisted
                and not vm.profiler.polymorphic_in(site[0])):
            # The method ladder owns this unit and its call sites are
            # monomorphic: a whole-method compile covers it at least as
            # well, so leave the back-edge to method OSR.
            return None
        if self._load_persisted(method, site):
            trace = self.traces[site]
            return self._entry(trace, vm, frame)
        self._start_recording(vm, frame, site)
        return None

    def _entry(self, trace, vm, frame):
        manager = self

        def cont():
            parent = frame.parent
            args = [frame.locals[i] for i in trace.live_slots]
            manager.telemetry.inc("trace.enters")
            value = trace.compiled(*args)
            if parent is None:
                return value
            # The trace's deopt metas are rooted at the loop method, so
            # the call above completed that method: emulate its RET into
            # the suspended caller chain.
            parent.push(value)
            return vm.run_frames(parent)

        return cont

    # -- recording lifecycle ---------------------------------------------------

    def _start_recording(self, vm, frame, site):
        rec = TraceRecording(self, "loop", frame.method, frame.bci, [frame])
        rec.live_slots = tuple(sorted(live_at(frame.method, frame.bci)))
        self._arm(rec, site)

    def _start_bridge(self, trace, meta_id):
        result = trace.result
        __, guard = self._find_guard(result, meta_id)
        if guard is None:
            trace.bridge_failed.add(meta_id)
            return
        rec = TraceRecording(self, "bridge", trace.method, trace.header_bci,
                             [])
        rec.live_slots = trace.live_slots
        rec.trace = trace
        rec.bridge_meta_id = meta_id
        rec.meta = result.metas[meta_id]
        rec.lives = guard.args[2:]
        self._arm(rec, trace.site, meta=meta_id)

    def _arm(self, rec, site, **data):
        """Give ``rec`` its own sym prefix and hook it into the
        interpreter's dispatch loop."""
        self._gen += 1
        rec.prefix = "t%d_" % self._gen
        self.recording = self.vm.trace_recorder = rec
        self.telemetry.inc("trace.records")
        self.telemetry.record("trace.record", site="%s:%d" % site,
                              mode=rec.mode, **data)

    def _detach(self, rec):
        rec.done = True
        if self.recording is rec:
            self.recording = None
        if self.vm.trace_recorder is rec:
            self.vm.trace_recorder = None

    def abort(self, rec, reason):
        self._detach(rec)
        self.telemetry.inc("trace.aborts")
        site = (rec.root_method.qualified_name, rec.header_bci)
        self.telemetry.record("trace.abort", site="%s:%d" % site,
                              mode=rec.mode, reason=reason, ops=rec.ops)
        if rec.mode == "bridge":
            rec.trace.bridge_failed.add(rec.bridge_meta_id)
            return
        self._aborts[site] += 1
        if self._aborts[site] >= ABORT_BUDGET:
            self._blacklist.add(site)

    def close_at_anchor(self, rec):
        """The recording reached the loop header: stage it, then install
        a loop trace or stitch a bridge."""
        self._detach(rec)
        staged = self._stage(rec)
        if staged is None:
            return
        if rec.mode == "bridge":
            self._stitch(rec, *staged)
        else:
            self._install_loop(rec, *staged)

    def close_with_return(self, rec):
        """A bridge recording returned from the loop method."""
        self._detach(rec)
        staged = self._stage(rec)
        if staged is not None:
            self._stitch(rec, *staged)

    # -- staging, building and compiling the trace unit ------------------------

    def _stage(self, rec):
        """Stage the recorded path with the staged interpreter, from the
        loop header (a loop trace) or from the exit's snapshot (a
        bridge, which shares its trace's statics). Returns the ``(block,
        end)`` of :meth:`StagedInterpreter.stage_trace` plus the machine,
        or None after a counted abort when staging cannot follow the log."""
        machine = StagedInterpreter(self.vm, _NO_MACROS, self.trace_options(),
                                    telemetry=self.telemetry)
        if rec.mode == "bridge":
            machine.statics = rec.trace.result.statics

            def entry():
                return machine.resume_state(rec.meta, rec.lives)
        else:
            def entry():
                frame = AbstractFrame(rec.root_method)
                frame.bci = rec.header_bci
                for i in rec.live_slots:
                    frame.locals[i] = Sym("p1_%d" % i)
                return MachineState(frame)
        try:
            block, end = machine.stage_trace(entry, rec.log, rec.header_bci,
                                             rec.prefix)
            if rec.mode == "loop" and isinstance(block.terminator, Return):
                raise TraceAbort("loop exited through return")
        except ReproError as exc:
            self.abort(rec, str(exc))
            return None
        return block, end, machine

    def _build_result(self, rec, block, end, machine):
        live = rec.live_slots
        params = ["a%d" % (k + 1) for k in range(len(live))]
        header_params = ["p1_%d" % i for i in live]
        b0 = Block(0)
        b0.terminator = Jump(1, [(p, Sym(a))
                                 for p, a in zip(header_params, params)])
        b1 = Block(1, params=header_params)
        b1.stmts = block.stmts
        b1.terminator = Jump(1, [(p, end[i])
                                 for p, i in zip(header_params, live)])
        return CompileResult(
            blocks={0: b0, 1: b1}, entry_bid=0,
            entry_assigns=b0.terminator.phi_assigns, param_names=params,
            metas=machine.ctx.deopt_metas, statics=machine.statics,
            stable_deps=[],
            warnings=[], taint_branch_sinks=[], noalloc_sites=[])

    def _unit_name(self, site):
        return "trace@%s:%d" % site

    def _install_loop(self, rec, block, end, machine):
        site = (rec.root_method.qualified_name, rec.header_bci)
        trace = LoopTrace(self, site, rec.root_method, rec.header_bci,
                          rec.live_slots)
        trace.result = self._build_result(rec, block, end, machine)
        self.traces[site] = trace
        name = self._unit_name(site)

        server = self.jit.async_compiler
        if server is not None:
            from repro.server import PRIORITY_OSR
            req = server.submit(
                ("trace",) + site,
                lambda: self._compile_trace(trace, name),
                priority=PRIORITY_OSR, tenant=self.jit.compile_tenant,
                on_complete=lambda compiled: self._install(trace, compiled),
                on_error=lambda error: self._compile_failed(trace, error))
            if not req.rejected:
                return
        try:
            compiled = self._compile_trace(trace, name)
        except Exception as exc:
            self._compile_failed(trace, exc)
            return
        self._install(trace, compiled)

    def _compile_trace(self, trace, name):
        """Run the trace's CompileResult through the ordinary pipeline:
        PassManager (full Tier-2 pass list) then the Python backend."""
        import time

        jit = self.jit
        opts = self.trace_options()
        tel = self.telemetry
        tel.record("compile.start", unit=name, tier=TIER_T)
        t0 = time.perf_counter()
        report = CompileReport(name=name, tier=TIER_T)
        compiled = jit._emit(trace.result, trace.result.param_names, name,
                             None, fuse=False, report=report, options=opts)
        compiled.report = report
        compiled.tier = TIER_T
        compiled.trace_owner = trace
        jit.compile_log.append((name, compiled))
        total = time.perf_counter() - t0
        tel.inc("compiles")
        tel.inc("compiles.tier%d" % TIER_T)
        tel.inc("trace.compiles")
        tel.observe("compile.tier%d.total" % TIER_T, total)
        tel.observe("compile.total", total)
        tel.record("compile.end", unit=name, tier=TIER_T, seconds=total,
                   blocks=report.blocks, stmts=report.stmts,
                   guards=sum(1 for b in trace.result.blocks.values()
                              for s in b.stmts
                              if s.op in ("guard", "guard_not")))
        return compiled

    def _compile_failed(self, trace, error):
        self.traces.pop(trace.site, None)
        self._blacklist.add(trace.site)
        self.telemetry.inc("trace.aborts")
        self.telemetry.record("trace.abort", site="%s:%d" % trace.site,
                              mode="compile", reason=str(error), ops=0)

    def _install(self, trace, compiled):
        """Make ``compiled`` the trace's active code: swap it into the
        unit cache and (re)store it in the persistent code cache."""
        trace.compiled = compiled
        jit = self.jit
        opts = self.trace_options()
        key = ("trace", trace.site[0], trace.site[1], opts.key())
        if trace.cache_key is not None:
            jit.unit_cache.remove(trace.cache_key)
        jit.unit_cache.get_or_else_update(key, lambda: compiled)
        trace.cache_key = key
        if jit.codecache is not None:
            from repro.codecache.fingerprint import trace_fingerprint
            fp = trace_fingerprint(jit, trace.method, trace.header_bci,
                                   opts)
            if jit.codecache.store(fp, compiled, opts):
                trace.fingerprint = fp
                jit.count_shared_cache("stores")
        self.telemetry.inc("trace.installed")

    def _load_persisted(self, method, site):
        """Warm start: adopt a persisted trace unit for this site. Loaded
        traces execute and count exits but never grow new bridges (their
        IR did not survive the process boundary)."""
        cc = self.jit.codecache
        if cc is None:
            return False
        from repro.codecache.fingerprint import trace_fingerprint
        opts = self.trace_options()
        fp = trace_fingerprint(self.jit, method, site[1], opts)
        compiled = cc.load(fp, self.jit, recompile=None, kind="trace")
        self.jit.count_shared_cache("misses" if compiled is None else "hits")
        if compiled is None:
            return False
        live = sorted(live_at(method, site[1]))
        trace = LoopTrace(self, site, method, site[1], live)
        trace.compiled = compiled
        trace.fingerprint = fp
        compiled.trace_owner = trace
        compiled.tier = TIER_T
        self.traces[site] = trace
        key = ("trace", site[0], site[1], opts.key())
        self.jit.unit_cache.get_or_else_update(key, lambda: compiled)
        trace.cache_key = key
        self.jit.compile_log.append((self._unit_name(site), compiled))
        self.telemetry.inc("trace.cache_loads")
        return True

    # -- side exits, bridges, blacklisting -------------------------------------

    def on_trace_exit(self, trace, meta_id):
        trace.exits[meta_id] += 1
        trace.total_exits += 1
        tel = self.telemetry
        tel.inc("trace.exits")
        reason = ""
        if trace.result is not None and meta_id < len(trace.result.metas):
            reason = trace.result.metas[meta_id].reason
        tel.record("trace.exit", site="%s:%d" % trace.site, meta=meta_id,
                   count=trace.exits[meta_id], reason=reason)
        if trace.blacklisted or not self.enabled:
            return
        if (trace.result is not None and self.recording is None
                and meta_id not in trace.bridged
                and meta_id not in trace.bridge_failed
                and trace.exits[meta_id] >= self.options.bridge_threshold):
            # Record the interpreter resume that is about to happen.
            self._start_bridge(trace, meta_id)
            return
        if trace.total_exits > self.options.trace_exit_budget:
            self._blacklist_trace(trace, "exit budget exhausted")

    @staticmethod
    def _find_guard(result, meta_id):
        """(host block id, guard) of deopt meta ``meta_id``, or a pair of
        None when the trace has no IR or no such guard."""
        for bid in sorted(result.blocks) if result is not None else ():
            for stmt in result.blocks[bid].stmts:
                if stmt.op in ("guard", "guard_not") \
                        and stmt.args[1] == meta_id:
                    return bid, stmt
        return None, None

    def _stitch(self, rec, block, end, machine):
        """Splice a finished bridge into its trace: the bridged guard
        becomes a Branch whose off-side runs the bridge block (back into
        the loop, or out through a Return), then the whole unit goes
        through the pipeline and caches again."""
        trace = rec.trace
        meta_id = rec.bridge_meta_id
        result = trace.result
        host_bid, guard = self._find_guard(result, meta_id)
        if guard is None:
            trace.bridge_failed.add(meta_id)
            return

        kind = "return" if isinstance(block.terminator, Return) else "loop"
        if kind == "loop":
            # The pass pipeline prunes loop-invariant header params. A
            # bridge that *writes* such a slot (e.g. the inner loop of a
            # nest bridging through the outer loop's increment) cannot
            # be stitched: the pruned back edge has nowhere to carry the
            # new value, so the stitched loop would re-run the bridge
            # from the entry value forever. The deopt-state verifier
            # reports the violation statically (with bci provenance);
            # keep the deopt exit instead — the enclosing loop's own
            # trace covers this path. Compare with the values the trace
            # enters its header with (its params a1..an), not with the
            # bridge's start: a bridge recorded off an exit of an earlier
            # bridge already starts from that bridge's writes.
            from repro.analysis.deoptcheck import check_bridge_stitch
            entry = list(end)
            for k, slot in enumerate(trace.live_slots):
                entry[slot] = Sym("a%d" % (k + 1))
            findings = check_bridge_stitch(
                result, trace.live_slots, entry, end, rec.root_method,
                rec.header_bci)
            if findings:
                trace.bridge_failed.add(meta_id)
                self.telemetry.inc("deoptcheck.bridge_rejects")
                self.telemetry.record(
                    "deoptcheck.reject", site="%s:%d" % trace.site,
                    findings=list(findings))
                self.telemetry.record(
                    "trace.abort", site="%s:%d" % trace.site,
                    mode="stitch", ops=rec.ops, reason=findings[0])
                return

        offset = len(result.metas)
        result.metas.extend(machine.ctx.deopt_metas)
        bridge_stmts = []
        for stmt in block.stmts:
            if stmt.op in ("guard", "guard_not"):
                stmt = Stmt(stmt.sym, stmt.op,
                            (stmt.args[0], stmt.args[1] + offset)
                            + stmt.args[2:], stmt.effect, stmt.flags)
            bridge_stmts.append(stmt)

        host = result.blocks[host_bid]
        idx = host.stmts.index(guard)
        cont_bid = max(result.blocks) + 1
        bridge_bid = cont_bid + 1
        cont = Block(cont_bid)
        cont.stmts = host.stmts[idx + 1:]
        cont.terminator = host.terminator
        bridge = Block(bridge_bid)
        bridge.stmts = bridge_stmts
        if kind == "loop":
            # The pass pipeline may have pruned loop-invariant header
            # params, so map by name (``p1_<slot>``), not by position.
            header_params = result.blocks[1].params
            bridge.terminator = Jump(
                1, [(p, end[int(p.rsplit("_", 1)[1])])
                    for p in header_params])
        else:
            bridge.terminator = block.terminator
        host.stmts = host.stmts[:idx]
        cond = guard.args[0]
        if guard.op == "guard":
            host.terminator = Branch(cond, cont_bid, [], bridge_bid, [])
        else:
            host.terminator = Branch(cond, bridge_bid, [], cont_bid, [])
        result.blocks[cont_bid] = cont
        result.blocks[bridge_bid] = bridge

        name = "%s+b%d" % (self._unit_name(trace.site),
                           len(trace.bridged) + 1)
        try:
            compiled = self._compile_trace(trace, name)
        except Exception as exc:
            # The IR is now mutated; stop bridging this trace but keep
            # the old compiled code running.
            trace.bridge_failed.add(meta_id)
            trace.result = None
            self.telemetry.record("trace.abort", site="%s:%d" % trace.site,
                                  mode="stitch", reason=str(exc), ops=0)
            return
        trace.bridged.add(meta_id)
        trace.exits[meta_id] = 0
        trace.total_exits = 0      # the stitched code earns a fresh budget
        self._install(trace, compiled)
        self.telemetry.inc("trace.stitches")
        self.telemetry.record("trace.stitch", site="%s:%d" % trace.site,
                              meta=meta_id, kind=kind,
                              bridges=len(trace.bridged))

    def _blacklist_trace(self, trace, reason):
        trace.blacklisted = True
        trace.result = None
        self.traces.pop(trace.site, None)
        self._blacklist.add(trace.site)
        if trace.cache_key is not None:
            self.jit.unit_cache.remove(trace.cache_key)
            trace.cache_key = None
        if trace.fingerprint is not None and self.jit.codecache is not None:
            self.jit.codecache.invalidate(trace.fingerprint, reason=reason)
            trace.fingerprint = None
        self.telemetry.inc("trace.blacklists")
        self.telemetry.record("trace.blacklist", site="%s:%d" % trace.site,
                              reason=reason, exits=trace.total_exits)

    # -- stats -----------------------------------------------------------------

    def snapshot(self):
        m = self.telemetry.metrics
        return {
            "enabled": self.enabled,
            "recordings": m.get("trace.records"),
            "aborts": m.get("trace.aborts"),
            "compiles": m.get("trace.compiles"),
            "entries": m.get("trace.enters"),
            "exits": m.get("trace.exits"),
            "stitches": m.get("trace.stitches"),
            "blacklists": m.get("trace.blacklists"),
            "cache_loads": m.get("trace.cache_loads"),
            "traces": {
                "%s:%d" % site: {
                    "compiled": t.compiled is not None,
                    "exits": t.total_exits,
                    "bridges": len(t.bridged),
                    "blacklisted": t.blacklisted,
                }
                for site, t in sorted(self.traces.items())
            },
        }
