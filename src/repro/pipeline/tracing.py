"""Tier-T: the trace-recording tier, amalgamated with the method ladder.

The method tiers (0/1/2) compile whole methods; this module adds a
PyPy-style *trace* tier following the Izawa et al. amalgamation papers
(see PAPERS.md): when a loop back-edge gets hot, the interpreter's
dispatch loop flips into *recording mode* (the ``can_enter_jit`` /
``jit_merge_point`` pair collapses to one hook at the back-edge), and one
concrete iteration is recorded as a linear trace — inlining straight
through guest calls, with an explicit guard at every point where the
recorded path speculated (branch directions, receiver classes).

The recorded trace is ordinary staged IR: a two-block CFG (prologue +
loop body whose back-edge jumps to itself) with block parameters for the
loop-carried locals and ``DeoptMeta`` snapshots at every guard. It then
flows through the very same machinery as a method unit — the PassManager
(so GVN/LICM/range-guard-pruning run on traces for free), the Python
backend, the unit cache, the compile server, and the persistent code
cache. A guard failure raises the ordinary ``DeoptException``; the
wrapper rebuilds interpreter frames *rooted at the loop method* and
resumes, so a trace exit completes the remaining method execution
exactly like any other deopt.

Side exits are counted per guard. A hot exit triggers *bridge
recording*: the interpreter resumes from the deopt as usual, but the
recorder shadows it from the failed guard's snapshot until execution
either reaches the loop header again (the bridge re-enters the loop) or
returns from the loop method (the bridge ends in ``Return``). The bridge
is then *stitched* into the trace CFG — the guard becomes a ``Branch``
whose off-side is the bridge block — and the whole unit is recompiled
through the pipeline. On megamorphic call sites this yields a chain of
class-guard bridges: an emergent polymorphic inline cache. Exits that
stay hot after the exit budget is spent blacklist the trace back to the
interpreter/method ladder.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.liveness import live_at
from repro.bytecode.opcodes import Op
from repro.compiler.deopt import DeoptMeta, FrameTemplate
from repro.compiler.stagedinterp import CompileResult
from repro.errors import ReproError
from repro.interp.handlers import DISPATCH, OPSPECS, STACK_OPS
from repro.lms.ir import Block, Branch, Effect, Jump, Return, Stmt
from repro.lms.rep import ConstRep, Sym
from repro.lms.staging import _Statics
from repro.observability import CompileReport
from repro.pipeline.tiers import TIER_T, tier_options
from repro.runtime.natives import lookup_native
from repro.runtime.objects import Obj

#: Per-site failed-recording budget before the site is never traced again.
ABORT_BUDGET = 5

#: Inlined guest frames a recording may hold; deeper calls stay residual.
MAX_INLINE_FRAMES = 8

#: Interpreted instructions a residual (non-inlined) call may execute
#: before the recording gives up waiting for it to return.
_SKIP_BUDGET = 200_000


def trace_options(base):
    """The CompileOptions a trace unit compiles under (Tier T)."""
    return tier_options(base, TIER_T)


class TraceAbort(Exception):
    """Recording cannot continue (unsupported op, desync, too long)."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class _ShadowFrame:
    """The recorder's abstract mirror of one interpreter frame: every
    local slot and stack entry holds the Rep computing that value. It
    speaks the interpreter's frame protocol, so the :data:`STACK_OPS`
    handlers run on it unchanged."""

    __slots__ = ("method", "bci", "locals", "stack")

    def __init__(self, method):
        self.method = method
        self.bci = 0
        self.locals = [ConstRep(None)] * method.num_locals
        self.stack = []

    def push(self, rep):
        self.stack.append(rep)

    def pop(self):
        return self.stack.pop()

    def peek(self):
        return self.stack[-1]

    def pop_n(self, n):
        """Pop the top ``n`` entries; returns them bottom to top."""
        if n > len(self.stack):
            raise TraceAbort("stack underflow")
        popped = self.stack[len(self.stack) - n:]
        del self.stack[len(self.stack) - n:]
        return popped


class TraceRecording:
    """One in-progress recording (a root loop trace or a bridge).

    ``record`` is called by the interpreter dispatch loop *before* each
    instruction executes, so concrete operands (branch conditions,
    receiver objects) are still on the real operand stack to peek at.
    The recorder steps a shadow frame chain of Reps in lockstep and
    aborts on any divergence from the expected control path.

    Value opcodes come from :data:`OPSPECS`: a pure op on constant
    operands folds through the interpreter's helper, anything else emits
    its IR op and effect. One rule covers guest errors: an instruction
    whose concrete execution raises aborts the recording (traces never
    capture error paths). The interpreter reports the error through
    :meth:`on_error`; a constant fold that raises is the same error.
    """

    def __init__(self, manager, mode, root_method, header_bci, shadow,
                 expect_bci, prefix, statics):
        self.manager = manager
        self.mode = mode                  # "loop" | "bridge"
        self.root_method = root_method
        self.header_bci = header_bci
        self.shadow = shadow              # root -> leaf
        self.expect_bci = expect_bci
        self.prefix = prefix              # sym prefix, unique per recording
        self.statics = statics
        self.stmts = []
        self.metas = []
        self.ops = 0
        self.done = False
        self.live_slots = ()              # set by the manager
        self.trace = None                 # bridge mode: the LoopTrace
        self.bridge_meta_id = None        # bridge mode: the exit bridged
        self._n = 0
        self._skip = None    # (frame, resume bci, result rep, budget)

    # -- IR emission -----------------------------------------------------------

    def _fresh(self):
        self._n += 1
        return Sym("%s%d" % (self.prefix, self._n))

    def emit(self, op, args, effect):
        flags = None
        if (self.manager.options.check_noalloc
                and effect is not Effect.GUARD):
            # The demand on a trace is an allocation-free loop body.
            # Side-exit guards are Tier T's own mechanism — every trace
            # has them — so they are not residual deopt points in the
            # demanded region the way a method-compile guard is.
            flags = {"noalloc": True}
        stmt = Stmt(self._fresh(), op, args, effect, flags)
        self.stmts.append(stmt)
        return stmt.sym

    def lift_static(self, obj):
        from repro.lms.rep import StaticRep
        return StaticRep(self.statics.index_of(obj), obj)

    # -- deopt snapshots -------------------------------------------------------

    def _snapshot(self, extra_stack, reason):
        """Build a DeoptMeta for the current shadow state (resuming at the
        leaf's ``bci`` with ``extra_stack`` re-pushed); returns
        ``(meta_id, live reps)`` exactly like the staged interpreter's
        snapshot, so guards render identically."""
        lives = []
        index = {}

        def template(rep):
            if isinstance(rep, ConstRep):
                return ("const", rep.value)
            idx = index.get(rep.name)
            if idx is None:
                idx = len(lives)
                index[rep.name] = idx
                lives.append(rep)
            return ("live", idx)

        frames = []
        leaf = self.shadow[-1]
        for sf in self.shadow:
            live = live_at(sf.method, sf.bci)
            locals_t = [template(sf.locals[i]) if i in live
                        else ("const", None)
                        for i in range(sf.method.num_locals)]
            stack_t = [template(r) for r in sf.stack]
            if sf is leaf:
                stack_t += [template(r) for r in extra_stack]
            frames.append(FrameTemplate(sf.method, sf.bci, locals_t,
                                        stack_t))
        self.metas.append(DeoptMeta(frames, reason=reason,
                                    kind="interpret"))
        return len(self.metas) - 1, lives

    def emit_guard(self, cond, expect, extra_stack, reason):
        """Guard that ``cond`` is truthy (``expect=True``) or falsy at
        trace runtime; on failure deopt to the current shadow state."""
        meta_id, lives = self._snapshot(extra_stack, reason)
        op = "guard" if expect else "guard_not"
        return self.emit(op, (cond, meta_id) + tuple(lives), Effect.GUARD)

    # -- the per-instruction hook ----------------------------------------------

    def record(self, vm, frame, ins, bci):
        if self.done:
            return
        try:
            self._step(vm, frame, ins, bci)
        except TraceAbort as abort:
            self.manager.abort(self, abort.reason)
        except ReproError as exc:
            self.on_error(exc)
        except Exception as exc:  # defensive: never break interpretation
            self.manager.abort(self, "recorder error: %r" % exc)

    def on_error(self, exc):
        """The recorded instruction raises ``exc``: give up the trace."""
        self.manager.abort(self, "guest error: %s" % exc)

    def _step(self, vm, frame, ins, bci):
        skip = self._skip
        if skip is not None:
            sframe, resume, rep, budget = skip
            if frame is not sframe:
                budget -= 1
                if budget <= 0:
                    raise TraceAbort("residual call ran too long")
                self._skip = (sframe, resume, rep, budget)
                return
            if bci != resume:
                raise TraceAbort("desync after residual call")
            self._skip = None
            self.shadow[-1].stack.append(rep)
            # fall through: record this instruction normally

        sf = self.shadow[-1]
        if frame.method is not sf.method or bci != self.expect_bci:
            raise TraceAbort("desync at %s@%d"
                             % (frame.method.qualified_name, bci))
        sf.bci = bci

        # Arrived back at the loop header with the root frame on top:
        # the trace (or bridge) closes into the loop.
        if (len(self.shadow) == 1 and frame.method is self.root_method
                and bci == self.header_bci and self.ops):
            if sf.stack:
                raise TraceAbort("non-empty stack at loop header")
            self.manager.close_at_anchor(self)
            return

        self.ops += 1
        if self.ops > self.manager.options.trace_max_ops:
            raise TraceAbort("trace too long")

        op = ins.op
        push = sf.stack.append
        pop = sf.stack.pop
        nbci = bci + 1

        if op in STACK_OPS:
            DISPATCH[op](vm, sf, ins.arg)
        elif op is Op.CONST:
            push(ConstRep(ins.arg))
        elif op is Op.THROW:
            raise TraceAbort("guest throw")
        elif op in OPSPECS:
            self._value_op(sf, OPSPECS[op], ins.arg)
        elif op is Op.JUMP:
            target = ins.arg
            if (len(self.shadow) == 1 and frame.method is self.root_method
                    and target == self.header_bci):
                if sf.stack:
                    raise TraceAbort("non-empty stack at back-edge")
                sf.bci = target
                self.manager.close_at_anchor(self)
                return
            nbci = target      # inner loops unroll into the trace
        elif op is Op.JIF_TRUE or op is Op.JIF_FALSE:
            cond = pop()
            taken = bool(frame.peek())      # the concrete condition
            if not isinstance(cond, ConstRep):
                # Resume at the branch itself with the condition re-pushed.
                self.emit_guard(cond, expect=taken, extra_stack=(cond,),
                                reason="branch")
            if op is Op.JIF_TRUE:
                nbci = ins.arg if taken else bci + 1
            else:
                nbci = bci + 1 if taken else ins.arg
        elif op is Op.RET or op is Op.RET_VAL:
            rep = pop() if op is Op.RET_VAL else ConstRep(None)
            if len(self.shadow) == 1:
                if self.mode == "bridge":
                    self.manager.close_with_return(self, rep)
                    return
                raise TraceAbort("loop exited through return")
            if sf.stack:
                raise TraceAbort("non-empty stack at return")
            self.shadow.pop()
            parent = self.shadow[-1]
            parent.stack.append(rep)
            nbci = parent.bci
        elif op is Op.INVOKE:
            nbci = self._invoke(vm, frame, ins, bci)
        elif op is Op.INVOKE_STATIC:
            nbci = self._invoke_static(vm, frame, ins, bci)
        elif op is Op.NEW:
            cls = vm.linker.resolve_class(ins.arg)
            push(self.emit("new", (self.lift_static(cls),), Effect.ALLOC))
        elif op is Op.ARRAY_LIT:
            push(self.emit("array_lit", tuple(sf.pop_n(ins.arg)),
                           Effect.ALLOC))
        else:
            raise TraceAbort("unsupported op %s" % op.name)

        self.expect_bci = nbci

    # -- op helpers ------------------------------------------------------------

    def _value_op(self, sf, spec, imm):
        """Record one :data:`OPSPECS` opcode. The emitted ops carry no
        type flags: the recorder proves nothing about operand types, so
        the shared guest-ops semantics do the work."""
        operands = sf.pop_n(spec.pops)
        if spec.effect is Effect.PURE \
                and all(isinstance(r, ConstRep) for r in operands):
            values = [r.value for r in operands]
            if spec.imm:
                values.append(imm)
            rep = ConstRep(spec.helper(*values))
        else:
            rep = self.emit(spec.ir, spec.ir_args(operands, imm),
                            spec.effect)
        if spec.pushes:
            sf.push(rep)

    def _can_inline(self, method):
        if len(self.shadow) >= MAX_INLINE_FRAMES:
            return False
        return all(sf.method is not method for sf in self.shadow)

    def _invoke(self, vm, frame, ins, bci):
        sf = self.shadow[-1]
        name, argc = ins.arg
        if len(sf.stack) < argc + 1:
            raise TraceAbort("stack underflow at invoke")
        receiver = frame.peek(argc)          # concrete, pre-execution
        recv_rep = sf.stack[-1 - argc]

        if isinstance(receiver, Obj):
            method = receiver.cls.lookup_method(name)
            residual = (method is not None
                        and (method.is_static
                             or not self._can_inline(method)))
            if not residual:
                # Speculate on the exact receiver class; the snapshot
                # resumes at the INVOKE itself (args still on stack), so
                # a different class re-dispatches in the interpreter.
                if isinstance(recv_rep, ConstRep):
                    raise TraceAbort("constant receiver")
                cond = self.emit("class_is", (recv_rep, receiver.cls.name),
                                 Effect.PURE)
                self.emit_guard(cond, expect=True, extra_stack=(),
                                reason="receiver class")
            args = sf.pop_n(argc)
            sf.stack.pop()                   # the receiver
            if method is None:
                if name == "init" and not argc:
                    sf.stack.append(ConstRep(None))
                    return bci + 1
                raise TraceAbort("missing method %s" % name)
            if residual:
                return self._await(frame, bci, self.emit(
                    "invoke", (name, recv_rep, *args), Effect.CALL))
            if method.num_params != len(args):
                raise TraceAbort("arity mismatch")
            return self._inline(sf, bci, method, [recv_rep, *args])

        if callable(receiver) and name == "apply":
            # Host callable (e.g. a compiled closure): residualize.
            args = sf.pop_n(argc)
            sf.stack.pop()
            return self._await(frame, bci, self.emit(
                "invoke", (name, recv_rep, *args), Effect.CALL))

        raise TraceAbort("invoke on %r" % type(receiver).__name__)

    def _invoke_static(self, vm, frame, ins, bci):
        sf = self.shadow[-1]
        cls_name, name, argc = ins.arg
        nat = lookup_native(cls_name, name)
        if nat is not None:
            if nat.argc != argc:
                raise TraceAbort("native arity mismatch")
            rep = self.emit("native", (nat, *sf.pop_n(argc)), nat.effect)
            if nat.calls_guest:
                # The native may interpret guest frames before producing
                # its result: wait for control to return here.
                return self._await(frame, bci, rep)
            sf.stack.append(rep)
            return bci + 1

        method = vm.linker.resolve_static(cls_name, name)
        args = sf.pop_n(argc)
        if method.num_params != len(args):
            raise TraceAbort("arity mismatch")
        if self._can_inline(method):
            return self._inline(sf, bci, method, args)
        return self._await(frame, bci, self.emit(
            "invoke_method", (self.lift_static(method), ConstRep(None), *args),
            Effect.CALL))

    def _inline(self, sf, bci, method, args):
        """Step into ``method``: push its shadow frame, resuming ``sf``
        after the call at ``bci`` on RET (or deopt)."""
        sf.bci = bci + 1
        callee = _ShadowFrame(method)
        callee.locals[:len(args)] = args
        self.shadow.append(callee)
        return 0

    def _await(self, frame, bci, rep):
        """A residual call at ``bci``: skip the frames it interprets
        until control returns to ``frame``, then push ``rep``."""
        self.expect_bci = bci + 1
        self._skip = (frame, bci + 1, rep, _SKIP_BUDGET)
        return bci + 1


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
        shadow the resumed execution."""
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
        method = frame.method
        header = frame.bci
        live = sorted(live_at(method, header))
        shadow = _ShadowFrame(method)
        shadow.bci = header
        for i in live:
            shadow.locals[i] = Sym("p1_%d" % i)
        self._gen += 1
        rec = TraceRecording(self, "loop", method, header, [shadow],
                             expect_bci=header,
                             prefix="t%d_" % self._gen, statics=_Statics())
        rec.live_slots = tuple(live)
        self.recording = rec
        vm.trace_recorder = rec
        self.telemetry.inc("trace.records")
        self.telemetry.record("trace.record", site="%s:%d" % site,
                              mode="loop")

    def _start_bridge(self, trace, meta_id):
        result = trace.result
        __, guard = self._find_guard(result, meta_id)
        if guard is None:
            trace.bridge_failed.add(meta_id)
            return
        lives = guard.args[2:]
        meta = result.metas[meta_id]
        shadow = []
        for ft in meta.frames:
            sf = _ShadowFrame(ft.method)
            sf.bci = ft.bci
            try:
                sf.locals = [self._resolve_template(t, lives)
                             for t in ft.locals_t]
                sf.stack = [self._resolve_template(t, lives)
                            for t in ft.stack_t]
            except TraceAbort:
                trace.bridge_failed.add(meta_id)
                return
            shadow.append(sf)
        self._gen += 1
        rec = TraceRecording(self, "bridge", trace.method, trace.header_bci,
                             shadow, expect_bci=shadow[-1].bci,
                             prefix="t%d_" % self._gen,
                             statics=result.statics)
        rec.live_slots = trace.live_slots
        rec.trace = trace
        rec.bridge_meta_id = meta_id
        self.recording = rec
        self.vm.trace_recorder = rec
        self.telemetry.inc("trace.records")
        self.telemetry.record("trace.record", site="%s:%d" % trace.site,
                              mode="bridge", meta=meta_id)

    @staticmethod
    def _resolve_template(t, lives):
        kind = t[0]
        if kind == "live":
            return lives[t[1]]
        if kind == "const":
            return ConstRep(t[1])
        raise TraceAbort("unresumable %s template" % kind)

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
        """The recording reached the loop header with an empty stack."""
        self._detach(rec)
        if rec.mode == "bridge":
            self._stitch(rec, kind="loop")
        else:
            self._install_loop(rec)

    def close_with_return(self, rec, rep):
        """A bridge recording returned from the loop method."""
        self._detach(rec)
        self._stitch(rec, kind="return", ret=rep)

    # -- building and compiling the trace unit ---------------------------------

    def _build_result(self, rec):
        live = rec.live_slots
        params = ["a%d" % (k + 1) for k in range(len(live))]
        header_params = ["p1_%d" % i for i in live]
        b0 = Block(0)
        b0.terminator = Jump(1, [(p, Sym(a))
                                 for p, a in zip(header_params, params)])
        b1 = Block(1, params=header_params)
        b1.stmts = rec.stmts
        b1.terminator = Jump(1, [(p, rec.shadow[0].locals[i])
                                 for p, i in zip(header_params, live)])
        return CompileResult(
            blocks={0: b0, 1: b1}, entry_bid=0,
            entry_assigns=b0.terminator.phi_assigns, param_names=params,
            metas=rec.metas, statics=rec.statics, stable_deps=[],
            warnings=[], taint_branch_sinks=[], noalloc_sites=[])

    def _unit_name(self, site):
        return "trace@%s:%d" % site

    def _install_loop(self, rec):
        site = (rec.root_method.qualified_name, rec.header_bci)
        trace = LoopTrace(self, site, rec.root_method, rec.header_bci,
                          rec.live_slots)
        trace.result = self._build_result(rec)
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

        from repro.pipeline.backend import CompilationUnit, get_backend
        from repro.pipeline.passes import PassManager

        jit = self.jit
        opts = self.trace_options()
        tel = self.telemetry
        tel.record("compile.start", unit=name, tier=TIER_T)
        t0 = time.perf_counter()
        report = CompileReport(name=name, tier=TIER_T)
        manager = PassManager(opts, telemetry=tel)
        manager.run(trace.result, name, report=report)
        unit = CompilationUnit(result=trace.result, name=name, jit=jit,
                               recompile=None, report=report, options=opts)
        compiled = get_backend("python").emit(unit)
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
            # Shadow the interpreter resume that is about to happen.
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

    def _stitch(self, rec, kind, ret=None):
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
            end = rec.shadow[0].locals
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
        result.metas.extend(rec.metas)
        bridge_stmts = []
        for stmt in rec.stmts:
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
                1, [(p, rec.shadow[0].locals[int(p.rsplit("_", 1)[1])])
                    for p in header_params])
        else:
            bridge.terminator = Return(ret)
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
