"""The staged interpreter: Lancet's core (paper sections 2.1–2.3).

This is the bytecode interpreter of :mod:`repro.interp` with its value
domain swapped from concrete values to staged values (``Rep``), exactly as
the paper describes: the frame layout, operand-stack handling, and dispatch
logic execute *statically* at compile time; only primitive operations and
heap accesses become residual code.

Layered on top is the abstract interpreter (section 2.2): every staged
value carries an ``AbsVal`` fact, operations fold when their operands are
static, and control-flow joins compute least upper bounds, iterating to a
fixpoint around loops ("dataflow analysis interleaved with
transformation").

Mechanically, compilation explores a graph of *machine states* (an
inline-chain of abstract frames plus an abstract heap of scalar-replaced
allocations):

* straight-line control flow and calls chosen for inlining are absorbed
  into the current block;
* branches whose condition folds to a constant disappear;
* transfers to bytecode join points split blocks. The first edge to a join
  creates a single-predecessor continuation block (which may freely read
  the predecessor's symbols and receive scalar-replaced objects); a second
  edge converts it to a *merge block* with explicit block parameters, and
  the whole compilation restarts with the widened entry state. Passes
  repeat until no entry state changes — the fixpoint of section 2.2.
* under an ``unroll`` dynamic scope, repeated arrivals at a loop header
  with fully-static state clone the header instead of widening
  (polyvariant specialization — this is how loops over frozen data unroll).

JIT macros (section 2.3) intercept calls before native/guest dispatch and
may return staged values or directives (inline-this, guard, slowpath,
fastpath, return) — see :mod:`repro.macros.api`.

The same machine stages Tier T's traces (:meth:`StagedInterpreter.
stage_trace`): the trace recorder logs only the concrete outcomes staging
cannot know — branch conditions and receiver classes — and staging
follows that one path, guarding where it speculates, without splitting at
joins.
"""

from __future__ import annotations

import re
from collections import deque

from repro.absint.absval import (Const, Partial, PartialArray, Static,
                                 Unknown, UNKNOWN, lub, merge_type_hints)
from repro.bytecode.opcodes import Op
from repro.compiler.blocks import join_bcis
from repro.compiler.deopt import (DeoptMeta, FrameTemplate, VirtualArray,
                                  VirtualObject)
from repro.analysis.liveness import live_at
from repro.compiler.options import CompileOptions
from repro.errors import (CompilationError, GuestError, LinkError,
                          MaterializeError, UnrollError)
from repro.interp.handlers import DISPATCH, OPSPECS, STACK_OPS
from repro.lms.ir import Branch, Deopt, Effect, Jump, OsrCompile, Return
from repro.lms.rep import ConstRep, StaticRep, Sym
from repro.lms.staging import StagingContext, _Statics
from repro.macros.api import (FastpathDirective, MacroContext, MacroInline,
                              ReturnDirective, SlowpathDirective)
from repro.runtime.natives import lookup_native
from repro.runtime.objects import Obj

_END = "end"
_CONTINUE = "continue"

#: Frames a trace's inline chain may hold; deeper calls stay residual.
TRACE_INLINE_FRAMES = 8

# Fixpoint limits: staging passes per unit before giving up, and blocks
# one pass may stage; exceeding either fails the compile.
MAX_PASSES = 60
MAX_BLOCKS = 20000

_DIRECTIVE_SCOPES = {
    "inlineAlways": {"inline": "always"},
    "inlineNever": {"inline": "never"},
    "inlineNonRec": {"inline": "nonrec"},
    "unrollTopLevel": {"unroll": True},
    "unroll": {"unroll": True},
    "checkNoAlloc": {"noalloc": True},
    "checkNoTaint": {"checktaint": True},
}


class TraceAbort(CompilationError):
    """A trace cannot be recorded or staged; the message says why."""


def trace_inlines(frames, method):
    """Whether a trace inlines a call to ``method`` from the last of
    ``frames`` (root to leaf, interpreter or abstract frames): below the
    frame cap and not recursive. The recorder follows exactly the calls
    that staging inlines, so both ask this."""
    return len(frames) < TRACE_INLINE_FRAMES \
        and all(f.method is not method for f in frames)


class TracePath:
    """A recorded path, read in order while a trace stages: one
    ``(depth, method, bci, outcome)`` entry per ``JIF_*`` (the truth of
    its condition) and per ``INVOKE`` (the receiver's class, or None for
    a non-object) that the recorded frames ran."""

    __slots__ = ("log", "header_bci", "pos", "end")

    def __init__(self, log, header_bci):
        self.log = log
        self.header_bci = header_bci
        self.pos = 0
        self.end = None         # the root frame's locals at the header


class AbstractFrame:
    """An interpreter frame over staged values (paper Fig. 7: the locals
    array becomes ``Array[Rep[Object]]``)."""

    __slots__ = ("method", "parent", "bci", "locals", "tos", "scope",
                 "on_return")

    def __init__(self, method, parent=None, scope=None):
        self.method = method
        self.parent = parent
        self.bci = 0
        self.locals = [ConstRep(None)] * method.frame_slots()
        self.tos = method.num_locals
        self.scope = scope if scope is not None else {}
        self.on_return = None

    def push(self, rep):
        if self.tos >= len(self.locals):
            self.locals.append(rep)
        else:
            self.locals[self.tos] = rep
        self.tos += 1

    def pop(self):
        self.tos -= 1
        return self.locals[self.tos]

    def peek(self):
        return self.locals[self.tos - 1]

    def pop_n(self, n):
        """Pop the top ``n`` reps; returns them bottom to top."""
        self.tos -= n
        return self.locals[self.tos:self.tos + n]

    def stack_reps(self):
        return self.locals[self.method.num_locals:self.tos]

    def copy_chain(self):
        parent = self.parent.copy_chain() if self.parent is not None else None
        f = AbstractFrame.__new__(AbstractFrame)
        f.method = self.method
        f.parent = parent
        f.bci = self.bci
        f.locals = list(self.locals)
        f.tos = self.tos
        f.scope = dict(self.scope)
        f.on_return = self.on_return
        return f

    def chain(self):
        """Frames from root to this leaf."""
        frames = []
        f = self
        while f is not None:
            frames.append(f)
            f = f.parent
        frames.reverse()
        return frames


class HeapEntry:
    """A scalar-replaced allocation: object or array."""

    __slots__ = ("kind", "cls", "fields", "elems", "materialized")

    def __init__(self, kind, cls=None, fields=None, elems=None,
                 materialized=False):
        self.kind = kind            # 'obj' | 'arr'
        self.cls = cls
        self.fields = fields if fields is not None else {}
        self.elems = elems
        self.materialized = materialized

    def copy(self):
        return HeapEntry(self.kind, self.cls,
                         dict(self.fields) if self.fields is not None else None,
                         list(self.elems) if self.elems is not None else None,
                         self.materialized)


class MachineState:
    """Leaf abstract frame (chain via parents) + abstract heap."""

    __slots__ = ("frame", "heap")

    def __init__(self, frame, heap=None):
        self.frame = frame
        self.heap = heap if heap is not None else {}

    def copy(self):
        return MachineState(self.frame.copy_chain(),
                            {k: e.copy() for k, e in self.heap.items()})

    def key(self):
        parts = []
        f = self.frame
        while f is not None:
            parts.append((id(f.method), f.bci))
            f = f.parent
        return tuple(parts)


class MergeInfo:
    """Persistent (across passes) facts about one reachable program point."""

    __slots__ = ("bid", "mode", "lattice", "shape")

    def __init__(self, bid):
        self.bid = bid
        self.mode = "single"
        self.lattice = None       # list of slot-lattice entries (merge mode)
        self.shape = None         # representative state (frame shape/scopes)


class CompileResult:
    """Everything the JIT driver needs to finish a unit."""

    def __init__(self, blocks, entry_bid, entry_assigns, param_names, metas,
                 statics, stable_deps, warnings, taint_branch_sinks,
                 noalloc_sites):
        self.blocks = blocks
        self.entry_bid = entry_bid
        self.entry_assigns = entry_assigns
        self.param_names = param_names
        self.metas = metas
        self.statics = statics
        self.stable_deps = stable_deps
        self.warnings = warnings
        # (Branch terminator, description) pairs for dynamic branches
        # emitted under a checktaint scope; the taint pass decides which
        # actually branch on tainted data.
        self.taint_branch_sinks = taint_branch_sinks
        # Slowpath deopt sites recorded under a noalloc scope at staging
        # (terminators are never DCE'd; scope info is gone later).
        self.noalloc_sites = noalloc_sites


class StagedInterpreter:
    """Compiles one unit (a guest closure/method under given abstract
    arguments) to a CFG of staged IR."""

    def __init__(self, vm, macros, options=None, telemetry=None):
        self.vm = vm
        self.linker = vm.linker
        self.macros = macros
        self.options = options or CompileOptions()
        self.telemetry = telemetry
        # Decision counters, reset each fixpoint pass so that after
        # compile_unit they describe the final (emitted) code, not the sum
        # over abandoned passes. Mirrored into the unit's CompileReport.
        self.pass_count = 0
        self.inline_count = 0
        self.residual_count = 0
        self.guard_count = 0
        self.deopt_site_count = 0
        self.unroll_clone_count = 0
        self.macro_count = 0
        # Persistent across passes:
        self.statics = _Statics()
        self.merge_infos = {}
        self._next_bid = 0
        self.stable_deps = []          # (obj, field_name)
        # Static arrays the compiled code writes (or passes to residual
        # calls): their element reads must not fold. Discovered writes
        # trigger another pass so earlier folds get undone.
        self._written_statics = set()
        # Per pass:
        self.ctx = None
        self._pass_changed = False
        self._reached_count = None
        self._enqueued = None
        self._generated = None
        self._single_entries = None
        self._pass_versions = None
        self._worklist = None
        self._taint_branch_sinks = []
        self._noalloc_sites = []
        self._stmt_budget = 0
        self._trace = None      # the TracePath being staged, if any

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def compile_unit(self, build_entry_state, param_names):
        """Run generation passes to fixpoint. ``build_entry_state()``
        constructs a fresh entry state (same shape every pass)."""
        entry_bid = None
        entry_assigns = []
        for pass_num in range(MAX_PASSES):
            self._begin_pass(pass_num)
            entry_state = build_entry_state()
            # Seed abstract facts for the entry parameter syms.
            prologue = self.ctx.new_block(self._bid_for_prologue())
            self.ctx.set_current(prologue)
            entry_bid, entry_assigns = self.reach(entry_state)
            prologue.terminator = Jump(entry_bid, entry_assigns)

            while self._worklist:
                entry = self._worklist.popleft()
                if entry[0] == "merge":
                    # Build the merge state from the *current* lattice:
                    # predecessors reached after enqueueing may have
                    # upgraded slots (const -> param) in the meantime.
                    bid, state, params = self._merge_entry(entry[1])
                else:
                    __, bid, state = entry
                    params = None
                self._generate_block(bid, state, params)

            self._tel_record("compile.phase", pass_num=pass_num + 1,
                             changed=self._pass_changed,
                             blocks=len(self.ctx.blocks))
            if not self._pass_changed:
                break
        else:
            raise CompilationError(
                "compilation did not converge after %d passes"
                % MAX_PASSES)

        blocks = self.ctx.blocks
        return CompileResult(
            blocks=blocks,
            entry_bid=self._prologue_bid,
            entry_assigns=entry_assigns,
            param_names=param_names,
            metas=self.ctx.deopt_metas,
            statics=self.statics,
            stable_deps=self.stable_deps,
            warnings=self.ctx.warnings,
            taint_branch_sinks=self._taint_branch_sinks,
            noalloc_sites=self._noalloc_sites,
        )

    def _begin_pass(self, pass_num, prefix=""):
        self.ctx = StagingContext(statics=self.statics, prefix=prefix)
        self._pass_changed = False
        self._reached_count = {}
        self._enqueued = set()
        self._generated = set()
        self._single_entries = {}
        self._pass_versions = {}
        self._worklist = deque()
        self._taint_branch_sinks = []
        self._noalloc_sites = []
        self._stmt_budget = self.options.max_stmts
        self.stable_deps = []
        self._fresh_arrays = set()
        self.pass_count = pass_num + 1
        self.inline_count = 0
        self.residual_count = 0
        self.guard_count = 0
        self.deopt_site_count = 0
        self.unroll_clone_count = 0
        self.macro_count = 0

    def stage_trace(self, build_entry_state, log, header_bci, prefix):
        """Stage one recorded path (a loop trace or a bridge; ``log`` as
        in :class:`TracePath`) into a single block whose syms start with
        ``prefix``. Returns ``(block, end)``: the block ends in ``Return``
        if the root frame returned, else ``end`` holds the root frame's
        locals where it reached ``header_bci`` again."""
        for pass_num in range(MAX_PASSES):
            self._begin_pass(pass_num, prefix)
            path = self._trace = TracePath(log, header_bci)
            self._generate_block(0, build_entry_state(), ())
            if not self._pass_changed:
                break
        else:
            raise CompilationError(
                "trace staging did not converge after %d passes"
                % MAX_PASSES)
        if any(entry[0] == 0 for entry in log[path.pos:]):
            raise TraceAbort("log entries left past the end of the path")
        return self.ctx.blocks[0], path.end

    def _tel_record(self, kind, /, **data):
        tel = self.telemetry
        if tel is not None:
            tel.record(kind, **data)

    def _bid_for_prologue(self):
        if not hasattr(self, "_prologue_bid"):
            self._prologue_bid = self._alloc_bid()
        return self._prologue_bid

    def _alloc_bid(self):
        bid = self._next_bid
        self._next_bid += 1
        return bid

    # ------------------------------------------------------------------
    # Abstract facts
    # ------------------------------------------------------------------

    def eval_abs(self, state, rep):
        """``evalA`` with scalar-replacement awareness."""
        if isinstance(rep, Sym):
            entry = state.heap.get(rep.name)
            if entry is not None and not entry.materialized:
                if entry.kind == "obj":
                    return Partial(entry.cls, entry.fields)
                return PartialArray(entry.elems)
        return self.ctx.eval_abs(rep)

    def eval_m(self, state, rep, _memo=None):
        """``evalM``: materialize a staged value to a concrete one."""
        if _memo is None:
            _memo = {}
        if isinstance(rep, Sym) and rep.name in _memo:
            return _memo[rep.name]
        av = self.eval_abs(state, rep)
        if isinstance(av, Const):
            return av.value
        if isinstance(av, Static):
            return av.obj
        if isinstance(av, Partial):
            obj = Obj(av.cls, {})
            _memo[rep.name] = obj
            for name in av.cls.all_fields:
                obj.fields[name] = None
            for name, frep in av.fields.items():
                obj.fields[name] = self.eval_m(state, frep, _memo)
            return obj
        if isinstance(av, PartialArray):
            arr = []
            _memo[rep.name] = arr
            arr.extend(self.eval_m(state, e, _memo) for e in av.elems)
            return arr
        raise MaterializeError("cannot materialize %r (%r)" % (rep, av))

    def static_value(self, state, rep):
        """Concrete value of a Const/Static rep, or a _NoValue marker."""
        av = self.eval_abs(state, rep)
        if isinstance(av, Const):
            return av.value
        if isinstance(av, Static):
            return av.obj
        return _NO_VALUE

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def emit_flags(self, state):
        scope = state.frame.scope
        # Bytecode provenance for the IR analyses (checkNoAlloc reports,
        # taint sinks): the method and bci this statement came from.
        flags = {"src": (state.frame.method.qualified_name,
                         state.frame.bci)}
        if scope.get("noalloc") or self.options.check_noalloc:
            flags["noalloc"] = True
        if scope.get("checktaint") or self.options.check_taint:
            flags["checktaint"] = True
        return flags

    def emit(self, state, op, args, effect=Effect.PURE, flags=None,
             absval=None, taint=None):
        if self._stmt_budget <= 0:
            raise CompilationError("statement budget exhausted "
                                   "(max_stmts=%d)" % self.options.max_stmts)
        self._stmt_budget -= 1
        merged = self.emit_flags(state)
        if flags:
            merged.update(flags)
        if effect is Effect.GUARD and self._trace is not None:
            # Side exits are Tier T's own mechanism, which every trace
            # has: they are not deopt points of the demanded region.
            merged.pop("noalloc", None)
        # checkNoAlloc violations are found by the post-optimization IR
        # pass (repro.analysis.alloc), not at emit time: a statement DCE
        # removes never reaches the generated code.
        if effect in (Effect.CALL, Effect.IO):
            # Residual calls may mutate any pre-existing object.
            self._forward.clear()
        self._dead_store_bookkeeping(op, args, effect, merged)
        sym = self.ctx.emit(op, args, effect=effect, flags=merged,
                            absval=absval, taint=taint)
        self._record_pending_store(op, args, merged)
        return sym

    def _record_pending_store(self, op, args, flags):
        block = self.ctx.current_block
        if not block.stmts:
            return
        stmt = block.stmts[-1]
        if stmt.op != op:
            return
        if op == "astore" and flags.get("fast") and "static_id" in flags \
                and isinstance(args[1], ConstRep):
            self._pending_arr_stores[(flags["static_id"],
                                      args[1].value)] = stmt
        elif op == "putfield" and flags.get("objfast") \
                and "static_id" in flags:
            self._pending_field_stores[(flags["static_id"], args[1])] = stmt

    def _dead_store_bookkeeping(self, op, args, effect, flags):
        """Dead-store elimination for forwarded stores to pre-existing
        arrays/objects: a fast store overwritten before any potentially
        aliasing read, call, or deopt point is removed."""
        arr_pending = self._pending_arr_stores
        field_pending = self._pending_field_stores
        if effect in (Effect.CALL, Effect.IO, Effect.GUARD):
            arr_pending.clear()
            field_pending.clear()
            return
        if op == "astore":
            if flags.get("fast") and "static_id" in flags \
                    and isinstance(args[1], ConstRep):
                key = (flags["static_id"], args[1].value)
                old = arr_pending.pop(key, None)
                if old is not None:
                    try:
                        self.ctx.current_block.stmts.remove(old)
                    except ValueError:
                        pass
            else:
                arr_pending.clear()
        elif op == "aload":
            if flags.get("fast"):
                pass  # same-key loads were forwarded; distinct keys are safe
            elif flags.get("known_arr") and isinstance(args[0], Sym) \
                    and args[0].name in self._fresh_arrays:
                pass  # a freshly-allocated array cannot alias a static
            else:
                arr_pending.clear()
        elif op == "putfield":
            if flags.get("objfast") and "static_id" in flags:
                key = (flags["static_id"], args[1])
                old = field_pending.pop(key, None)
                if old is not None:
                    try:
                        self.ctx.current_block.stmts.remove(old)
                    except ValueError:
                        pass
            else:
                field_pending.clear()
        elif op == "getfield":
            if not (flags.get("objfast") and "static_id" in flags):
                field_pending.clear()

    def emit_native(self, state, nat, args):
        for a in args:
            self.escape(state, a)
        if nat.effect in (Effect.IO, Effect.CALL):
            for a in args:
                self._note_static_write(state, a)
        sym = self.emit(state, "native", (nat,) + tuple(args),
                        effect=nat.effect,
                        absval=Unknown(ty=nat.result_ty,
                                       nonnull=nat.result_ty is not None))
        if nat.allocates:
            self._fresh_arrays.add(sym.name)
        return sym

    # ------------------------------------------------------------------
    # Scalar replacement / escapes
    # ------------------------------------------------------------------

    def escape(self, state, rep):
        """Materialize a scalar-replaced allocation (and everything it
        references) because it becomes visible to residual code."""
        if not isinstance(rep, Sym):
            return
        entry = state.heap.get(rep.name)
        if entry is None or entry.materialized:
            return
        entry.materialized = True
        flags = self.emit_flags(state)
        block = self.ctx.current_block
        if entry.kind == "obj":
            from repro.lms.ir import Stmt
            block.stmts.append(Stmt(rep, "new",
                                    (self.ctx.lift_static(entry.cls),),
                                    Effect.ALLOC, flags))
            self.ctx.abs[rep.name] = Unknown(ty="obj:%s" % entry.cls.name,
                                             nonnull=True)
            for fname in entry.cls.all_fields:
                frep = entry.fields.get(fname, ConstRep(None))
                self.escape(state, frep)
                self.emit(state, "putfield", (rep, fname, frep),
                          effect=Effect.WRITE, flags={"objfast": True})
        else:
            for e in entry.elems:
                self.escape(state, e)
            from repro.lms.ir import Stmt
            block.stmts.append(Stmt(rep, "array_lit", tuple(entry.elems),
                                    Effect.ALLOC, flags))
            self.ctx.abs[rep.name] = Unknown(ty="arr", nonnull=True)

    # ------------------------------------------------------------------
    # Deopt metadata
    # ------------------------------------------------------------------

    def snapshot(self, state, extra_stack=(), kind="interpret", reason=""):
        """Build deopt metadata for the current state; returns
        ``(meta_id, live_reps)``. ``extra_stack`` appends slot templates
        (e.g. the intercepted call's result) to the leaf frame's stack."""
        lives = []
        live_index = {}
        vmemo = {}

        def template(rep):
            if isinstance(rep, ConstRep):
                return ("const", rep.value)
            if isinstance(rep, StaticRep):
                return ("static", rep.obj)
            entry = state.heap.get(rep.name)
            if entry is not None and not entry.materialized:
                hit = vmemo.get(rep.name)
                if hit is not None:
                    return ("virtual", hit)
                if entry.kind == "obj":
                    vobj = VirtualObject(entry.cls, {})
                    vmemo[rep.name] = vobj
                    for fname, frep in entry.fields.items():
                        vobj.fields[fname] = template(frep)
                else:
                    vobj = VirtualArray([None] * len(entry.elems))
                    vmemo[rep.name] = vobj
                    for i, erep in enumerate(entry.elems):
                        vobj.elems[i] = template(erep)
                return ("virtual", vobj)
            idx = live_index.get(rep.name)
            if idx is None:
                idx = len(lives)
                live_index[rep.name] = idx
                lives.append(rep)
            return ("live", idx)

        frames = []
        for f in state.frame.chain():
            live_slots = live_at(f.method, f.bci)
            locals_t = []
            for i in range(f.method.num_locals):
                if i in live_slots:
                    locals_t.append(template(f.locals[i]))
                else:
                    locals_t.append(("const", None))
            stack_t = [template(r) for r in f.stack_reps()]
            if f is state.frame:
                for entry in extra_stack:
                    if entry[0] == "rep":
                        stack_t.append(template(entry[1]))
                    else:
                        stack_t.append(entry)
            frames.append(FrameTemplate(f.method, f.bci, locals_t, stack_t))
        meta = DeoptMeta(frames, reason=reason)
        meta.kind = kind
        meta_id = self.ctx.add_deopt_meta(meta)
        return meta_id, lives

    def emit_guard(self, state, cond_rep, result, kind="interpret",
                   expect=True, reason="guard"):
        """Emit a guard; ``result`` (a Rep, or a constant) is what the
        intercepted call evaluates to on the deoptimized path."""
        from repro.lms.rep import Rep
        if isinstance(result, Rep):
            extra = (("rep", result),)
        else:
            extra = (("const", result),)
        meta_id, lives = self.snapshot(state, extra_stack=extra, kind=kind,
                                       reason=reason)
        self.guard_count += 1
        self._tel_record("guard.install", kind=kind, expect=expect,
                         method=state.frame.method.qualified_name,
                         bci=state.frame.bci, pass_num=self.pass_count)
        op = "guard" if expect else "guard_not"
        return self.emit(state, op, (cond_rep, meta_id) + tuple(lives),
                         effect=Effect.GUARD)

    def resume_state(self, meta, lives):
        """The state a deopt through ``meta`` resumes, over staged values:
        the inverse of :meth:`snapshot`. ``live`` slots take ``lives``
        (the guard's arguments), constants and statics become reps, and
        virtual objects become heap entries again."""
        state = MachineState(None)
        virtuals = {}

        def rep(template):
            kind, value = template
            if kind == "live":
                return lives[value]
            if kind == "const":
                return ConstRep(value)
            if kind == "static":
                return self.ctx.lift_static(value)
            sym = virtuals.get(id(value))
            if sym is None:
                if isinstance(value, VirtualArray):
                    entry = HeapEntry("arr", elems=[])
                    sym = virtuals[id(value)] = self._virtual(state, entry)
                    entry.elems = [rep(t) for t in value.elems]
                else:
                    entry = HeapEntry("obj", cls=value.cls)
                    sym = virtuals[id(value)] = self._virtual(state, entry)
                    entry.fields = {
                        name: rep(value.fields.get(name, ("const", None)))
                        for name in value.cls.all_fields}
            return sym

        for ft in meta.frames:
            frame = AbstractFrame(ft.method, parent=state.frame)
            frame.bci = ft.bci
            frame.locals[:len(ft.locals_t)] = [rep(t) for t in ft.locals_t]
            for t in ft.stack_t:
                frame.push(rep(t))
            state.frame = frame
        return state

    def make_continuation(self, state):
        """Reify the current continuation as a runtime-callable closure
        (``shiftR``): invoking it with a value resumes the interpreter at
        this point with the value pushed."""
        meta_id, lives = self.snapshot(state, kind="cont", reason="shiftR")
        return self.emit(state, "make_cont", (meta_id,) + tuple(lives),
                         effect=Effect.ALLOC, absval=UNKNOWN)

    # ------------------------------------------------------------------
    # Staging a recorded trace
    # ------------------------------------------------------------------

    def _logged(self, state):
        """The outcome the recording logged for the instruction being
        staged. Entries deeper than its frame belong to a call staging
        kept residual and are skipped; any other mismatch means staging
        left the recorded path."""
        path = self._trace
        frame = state.frame
        depth = len(frame.chain()) - 1
        log = path.log
        i = path.pos
        while i < len(log) and log[i][0] > depth:
            i += 1
        if i == len(log) or log[i][:3] != (depth, frame.method,
                                           frame.bci - 1):
            raise TraceAbort("log desync at %s@%d" % (
                frame.method.qualified_name, frame.bci - 1))
        path.pos = i + 1
        return log[i][3]

    def _trace_guard(self, state, cond, expect, stack, reason):
        """Guard that ``cond`` is truthy (``expect``) or falsy; on failure
        the interpreter resumes at the instruction being staged with the
        operands ``stack`` pushed back, and executes it itself."""
        frame = state.frame
        frame.bci -= 1
        for rep in stack[:-1]:
            frame.push(rep)
        self.emit_guard(state, cond, stack[-1], expect=expect, reason=reason)
        frame.pop_n(len(stack) - 1)
        frame.bci += 1

    def _trace_receiver(self, state, recv, name, args, cls):
        """The receiver class an ``INVOKE`` in a trace stages with: the
        proven ``cls``, else the logged class behind a ``class_is`` guard.
        A call that stays residual dispatches at run time and needs no
        guard."""
        logged = self._logged(state)
        if cls is not None:
            if logged is not cls:
                raise TraceAbort("receiver class disagrees with the log")
            return cls
        if logged is None:
            return None
        method = logged.lookup_method(name)
        if method is not None and not self._inlines(state, method)[0]:
            return None
        cond = self.emit(state, "class_is", (recv, logged.name))
        self._trace_guard(state, cond, True, (recv, *args),
                          "receiver class")
        if isinstance(recv, Sym):
            self.ctx.abs[recv.name] = Unknown(ty="obj:%s" % logged.name,
                                              nonnull=True)
        return logged

    def _close_trace(self, state):
        """The path is back at the loop header. Partial objects still
        live there materialize, as on an edge into a merge block."""
        frame = state.frame
        if frame.stack_reps():
            raise TraceAbort("non-empty stack at loop header")
        self._apply_liveness(state)
        self._materialize(state)
        self._trace.end = frame.locals[:frame.method.num_locals]

    # ------------------------------------------------------------------
    # Reaching program points (merging / widening / unrolling)
    # ------------------------------------------------------------------

    def _apply_liveness(self, state):
        for f in state.frame.chain():
            live = live_at(f.method, f.bci)
            for i in range(f.method.num_locals):
                if i not in live and not isinstance(f.locals[i], ConstRep):
                    f.locals[i] = ConstRep(None)
        # Drop heap entries no longer referenced by any slot (dead
        # allocations vanish entirely — allocation sinking).
        if state.heap:
            reachable = set()
            work = []
            for f in state.frame.chain():
                for r in f.locals[:f.method.num_locals] + f.stack_reps():
                    if isinstance(r, Sym):
                        work.append(r.name)
            while work:
                name = work.pop()
                if name in reachable:
                    continue
                reachable.add(name)
                entry = state.heap.get(name)
                if entry is not None and not entry.materialized:
                    children = (entry.fields.values() if entry.kind == "obj"
                                else entry.elems)
                    for r in children:
                        if isinstance(r, Sym):
                            work.append(r.name)
            for name in list(state.heap):
                if name not in reachable:
                    del state.heap[name]

    def _flatten_slots(self, state):
        slots = []
        for f in state.frame.chain():
            slots.extend(f.locals[:f.method.num_locals])
            slots.extend(f.stack_reps())
        return slots

    def _set_slots(self, state, reps):
        it = iter(reps)
        for f in state.frame.chain():
            for i in range(f.method.num_locals):
                f.locals[i] = next(it)
            depth = f.tos - f.method.num_locals
            for i in range(depth):
                f.locals[f.method.num_locals + i] = next(it)

    def reach(self, state):
        """Transfer control to ``state``; returns (block id, phi assigns)."""
        self._apply_liveness(state)
        key = state.key()
        info = self.merge_infos.get(key)
        count = self._reached_count.get(key, 0)

        if info is not None and (count >= 1 or info.mode == "merge"):
            # A join. Under an `unroll` scope with static-only differences,
            # clone the target instead of widening (polyvariance).
            if state.frame.scope.get("unroll") and info.mode != "merge":
                prev = self._single_entries.get(info.bid)
                if prev is None or not _states_equal(prev, state):
                    return self._reach_versioned(key, state)
                return info.bid, []
            if state.frame.scope.get("unroll") and info.mode == "merge":
                return self._reach_versioned(key, state)

        if info is None:
            info = MergeInfo(self._alloc_bid())
            info.shape = state.copy()
            self.merge_infos[key] = info

        self._reached_count[key] = count + 1

        if info.mode == "single":
            if count == 0:
                prev = self._single_entries.get(info.bid)
                self._single_entries[info.bid] = state.copy()
                self._enqueue_single(info, state)
                return info.bid, []
            # Second predecessor: convert to a merge block and restart.
            info.mode = "merge"
            first_state = self._single_entries.get(info.bid)
            info.lattice = None
            self._pass_changed = True
            if first_state is not None:
                self._merge_into(info, first_state)
            return self._merge_into(info, state)
        return self._merge_into(info, state)

    def _reach_versioned(self, key, state):
        n = self._pass_versions.get(key, 0) + 1
        if n > self.options.unroll_limit:
            raise UnrollError(
                "unroll limit (%d) exceeded at %s@%d — is the trip count "
                "really static? (use freeze)" % (
                    self.options.unroll_limit,
                    state.frame.method.qualified_name, state.frame.bci))
        self._pass_versions[key] = n
        self.unroll_clone_count += 1
        self._tel_record("unroll.clone", version=n,
                         method=state.frame.method.qualified_name,
                         bci=state.frame.bci, pass_num=self.pass_count)
        vkey = key + (("v", n),)
        info = self.merge_infos.get(vkey)
        if info is None:
            info = MergeInfo(self._alloc_bid())
            info.shape = state.copy()
            self.merge_infos[vkey] = info
        if info.mode == "merge":
            self._reached_count[vkey] = self._reached_count.get(vkey, 0) + 1
            return self._merge_into(info, state)
        prev_count = self._reached_count.get(vkey, 0)
        self._reached_count[vkey] = prev_count + 1
        if prev_count == 0:
            self._single_entries[info.bid] = state.copy()
            self._enqueue_single(info, state)
            return info.bid, []
        info.mode = "merge"
        first_state = self._single_entries.get(info.bid)
        self._pass_changed = True
        if first_state is not None:
            self._merge_into(info, first_state)
        return self._merge_into(info, state)

    def _merge_into(self, info, state):
        """Merge ``state`` into a merge-mode block's entry lattice and
        compute this predecessor's phi assignments."""
        # Partials cannot cross a merge: materialize in the predecessor.
        self._materialize(state)
        slots = self._flatten_slots(state)
        if info.lattice is None:
            info.lattice = [("bot",)] * len(slots)
        if len(info.lattice) != len(slots):
            raise CompilationError("inconsistent frame shapes at join")
        assigns = []
        for i, rep in enumerate(slots):
            entry = info.lattice[i]
            new_entry, changed = self._merge_slot(entry, rep, state)
            if changed:
                info.lattice[i] = new_entry
                # If the block was already generated — or is sitting on the
                # worklist where an earlier predecessor computed its phi
                # assigns against the old lattice — another pass is needed
                # so all predecessors agree on the param list.
                if (info.bid in self._generated
                        or info.bid in self._enqueued):
                    self._pass_changed = True
            if new_entry[0] == "param":
                assigns.append(("p%d_%d" % (info.bid, i), rep))
        if info.bid not in self._enqueued and info.bid not in self._generated:
            self._enqueue_merge(info)
        return info.bid, assigns

    def _materialize(self, state):
        """Escape every allocation ``state`` still scalar-replaces."""
        for name in list(state.heap):
            if not state.heap[name].materialized:
                self.escape(state, Sym(name))

    def _merge_slot(self, entry, rep, state):
        av = self.eval_abs(state, rep)
        if entry[0] == "bot":
            if isinstance(rep, (ConstRep, StaticRep)):
                return ("const", rep), True
            return ("param", av), True
        if entry[0] == "const":
            if rep == entry[1]:
                return entry, False
            return ("param", lub(self.eval_abs(state, entry[1]), av)), True
        merged = lub(entry[1], av)
        if merged == entry[1]:
            return entry, False
        return ("param", merged), True

    def _enqueue_single(self, info, state):
        self._enqueued.add(info.bid)
        self._worklist.append(("single", info.bid, state))

    def _enqueue_merge(self, info):
        # Only the MergeInfo goes on the worklist; the entry state is built
        # from the *current* lattice at pop time (_merge_entry), so slot
        # upgrades (const -> param) between enqueue and generation are
        # never observed through a stale snapshot.
        self._enqueued.add(info.bid)
        self._worklist.append(("merge", info))

    def _merge_entry(self, info):
        state = info.shape.copy()
        state.heap = {}
        params = []
        reps = []
        for i, entry in enumerate(info.lattice):
            if entry[0] == "param":
                name = "p%d_%d" % (info.bid, i)
                sym = Sym(name)
                self.ctx.abs[name] = entry[1]
                params.append(name)
                reps.append(sym)
            elif entry[0] == "const":
                reps.append(entry[1])
            else:           # 'bot' — never observed; keep a null
                reps.append(ConstRep(None))
        self._set_slots(state, reps)
        return info.bid, state, params

    # ------------------------------------------------------------------
    # Block generation: the staged dispatch loop
    # ------------------------------------------------------------------

    def _generate_block(self, bid, state, params):
        if len(self.ctx.blocks) > MAX_BLOCKS:
            raise CompilationError("block budget exhausted (%d blocks)"
                                   % MAX_BLOCKS)
        block = self.ctx.new_block(bid, params=params or ())
        self.ctx.set_current(block)
        self._generated.add(bid)
        # Per-block store-to-load forwarding memo for pre-existing
        # arrays/objects: ("arr", id, index) / ("f", id, field) -> Rep.
        self._forward = {}
        # Pending (possibly dead) stores: key -> Stmt, removed when
        # overwritten before any potentially-aliasing read/barrier.
        self._pending_arr_stores = {}
        self._pending_field_stores = {}
        self._exec(state, block)

    def _goto(self, state, block, target_bci):
        """Transfer within the current method; splits at join points,
        except in a trace, which stays one block."""
        state.frame.bci = target_bci
        if self._trace is None \
                and target_bci in join_bcis(state.frame.method):
            tbid, assigns = self.reach(state)
            block.terminator = Jump(tbid, assigns)
            return _END
        return _CONTINUE

    def _exec(self, state, block):
        """Symbolically execute from ``state`` until a terminator."""
        steps = 0
        trace = self._trace
        while True:
            frame = state.frame
            if trace is not None:
                # A trace ends where its root frame is back at the header.
                if steps > 0 and frame.bci == trace.header_bci \
                        and frame.parent is None:
                    self._close_trace(state)
                    return
            # Split when falling into a join point (but not on block entry).
            elif steps > 0 and frame.bci in join_bcis(frame.method):
                tbid, assigns = self.reach(state)
                block.terminator = Jump(tbid, assigns)
                return
            steps += 1
            code = frame.method.code
            ins = code[frame.bci]
            frame.bci += 1
            op = ins.op
            push = frame.push
            pop = frame.pop

            if op in STACK_OPS:
                DISPATCH[op](None, frame, ins.arg)
            elif op is Op.CONST:
                push(ConstRep(ins.arg))
            elif op is Op.THROW:
                v = pop()
                self.escape(state, v)
                self.emit(state, "throw", (v,), effect=Effect.IO)
                block.terminator = Return(ConstRep(None))
                return
            elif op in OPSPECS:
                spec = OPSPECS[op]
                rep = self._value_op(state, spec, frame.pop_n(spec.pops),
                                     ins.arg)
                if spec.pushes:
                    push(rep)
            elif op is Op.JUMP:
                if self._goto(state, block, ins.arg) is _END:
                    return
            elif op is Op.JIF_TRUE or op is Op.JIF_FALSE:
                cond = pop()
                static = self.eval_abs(state, cond).is_static_value
                if static:
                    value = bool(self.static_value(state, cond))
                if trace is not None:
                    # A recorded path: resume at the branch on a miss.
                    logged = self._logged(state)
                    if not static:
                        self._trace_guard(state, cond, logged, (cond,),
                                          "branch")
                    elif value is not logged:
                        raise TraceAbort("folded branch disagrees with "
                                         "the log")
                    value = logged
                if trace is not None or static:
                    taken = value if op is Op.JIF_TRUE else not value
                    if taken:
                        if self._goto(state, block, ins.arg) is _END:
                            return
                    continue
                # Dynamic branch: end the block.
                checktaint = (state.frame.scope.get("checktaint")
                              or self.options.check_taint)
                s_taken = state.copy()
                s_taken.frame.bci = ins.arg
                s_fall = state
                t_bid, t_assigns = self.reach(s_taken)
                f_bid, f_assigns = self.reach(s_fall)
                if op is Op.JIF_TRUE:
                    block.terminator = Branch(cond, t_bid, t_assigns,
                                              f_bid, f_assigns)
                else:
                    block.terminator = Branch(cond, f_bid, f_assigns,
                                              t_bid, t_assigns)
                if checktaint:
                    # Record the terminator as a taint sink; the IR-level
                    # taint pass decides later whether the condition is
                    # actually tainted (flow-sensitively, through phis).
                    self._taint_branch_sinks.append(
                        (block.terminator,
                         "branch on tainted value in %s"
                         % frame.method.qualified_name))
                return
            elif op is Op.RET or op is Op.RET_VAL:
                rep = pop() if op is Op.RET_VAL else ConstRep(None)
                result = self._handle_return(state, block, rep)
                if result is _END:
                    return
            elif op is Op.INVOKE:
                name, argc = ins.arg
                args = frame.pop_n(argc)
                recv = pop()
                if self._invoke_virtual(state, block, recv, name, args) is _END:
                    return
            elif op is Op.INVOKE_STATIC:
                cls_name, name, argc = ins.arg
                args = frame.pop_n(argc)
                if self._invoke_static(state, block, cls_name, name,
                                       args) is _END:
                    return
            elif op is Op.NEW:
                cls = self.linker.resolve_class(ins.arg)
                push(self._virtual(state, HeapEntry(
                    "obj", cls=cls,
                    fields={name: ConstRep(None) for name in cls.all_fields})))
            elif op is Op.ARRAY_LIT:
                push(self._virtual(state, HeapEntry(
                    "arr", elems=frame.pop_n(ins.arg))))
            else:  # pragma: no cover
                raise CompilationError("bad opcode %r" % (op,))

    # ------------------------------------------------------------------
    # Returns and macro-directive plumbing
    # ------------------------------------------------------------------

    def _virtual(self, state, entry):
        """A scalar-replaced allocation: a fresh sym naming ``entry``."""
        sym = self.ctx.fresh_sym("o")
        state.heap[sym.name] = entry
        return sym

    def _handle_return(self, state, block, rep):
        frame = state.frame
        parent = frame.parent
        if parent is None:
            self.escape(state, rep)
            block.terminator = Return(rep)
            return _END
        on_return = frame.on_return
        state.frame = parent
        if on_return is not None:
            return self._apply_macro_result(
                state, block, on_return(self, state, rep))
        parent.push(rep)
        return _CONTINUE

    def _apply_macro_result(self, state, block, result):
        """Interpret a macro's return value (Rep or directive)."""
        from repro.lms.rep import Rep
        if isinstance(result, Rep):
            state.frame.push(result)
            return _CONTINUE
        if isinstance(result, MacroInline):
            self._push_inline(state, result.method, result.receiver,
                              result.args, result.scope_updates,
                              result.on_return)
            return _CONTINUE
        if isinstance(result, SlowpathDirective):
            meta_id, lives = self.snapshot(
                state, extra_stack=(("const", result.result),),
                kind="interpret", reason="slowpath")
            self.deopt_site_count += 1
            self._tel_record("deopt.site", kind="slowpath",
                             method=state.frame.method.qualified_name,
                             bci=state.frame.bci, pass_num=self.pass_count)
            if self.emit_flags(state).get("noalloc"):
                # Deopt terminators carry no flags, so slowpath sites are
                # recorded at staging time and handed to the post-
                # optimization checkNoAlloc pass via CompileResult.
                self._noalloc_sites.append(
                    "deoptimization point (slowpath) in %s (bci %d)"
                    % (state.frame.method.qualified_name, state.frame.bci))
            block.terminator = Deopt(meta_id, lives)
            return _END
        if isinstance(result, FastpathDirective):
            meta_id, lives = self.snapshot(
                state, extra_stack=(("const", result.result),),
                kind="osr", reason="fastpath")
            self.deopt_site_count += 1
            self._tel_record("deopt.site", kind="fastpath",
                             method=state.frame.method.qualified_name,
                             bci=state.frame.bci, pass_num=self.pass_count)
            block.terminator = OsrCompile(meta_id, lives)
            return _END
        if isinstance(result, ReturnDirective):
            self.escape(state, result.rep)
            block.terminator = Return(result.rep)
            return _END
        raise CompilationError("macro returned %r" % (result,))

    def _push_inline(self, state, method, receiver, args, scope_updates=None,
                     on_return=None):
        frame = state.frame
        depth = len(frame.chain())
        if depth >= self.options.max_inline_depth:
            raise CompilationError(
                "inline depth limit (%d) exceeded at %s — recursive "
                "macro expansion?" % (self.options.max_inline_depth,
                                      method.qualified_name))
        callee = AbstractFrame(method, parent=frame, scope=dict(frame.scope))
        if scope_updates:
            callee.scope.update(scope_updates)
        callee.on_return = on_return
        base = 0
        if not method.is_static:
            callee.locals[0] = receiver if receiver is not None \
                else ConstRep(None)
            base = 1
        for i, a in enumerate(args):
            callee.locals[base + i] = a
        state.frame = callee

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _call_policy(self, state, method):
        scope = state.frame.scope
        policy = scope.get("inline", self.options.inline_policy)
        callee_updates = {}
        for pattern, directive, mode in scope.get("triggers", ()):
            if re.search(pattern, method.qualified_name):
                updates = _DIRECTIVE_SCOPES.get(directive, {})
                callee_updates.update(updates)
                if mode == "at" and "inline" in updates:
                    policy = updates["inline"]
        return policy, callee_updates

    def _inlines(self, state, method):
        """``(inline?, policy, callee scope updates)`` for a call to
        ``method``. A trace inlines by :func:`trace_inlines`, the rule
        its recorder follows."""
        policy, updates = self._call_policy(state, method)
        chain = state.frame.chain()
        if self._trace is not None:
            inline = trace_inlines(chain, method)
        else:
            inline = policy == "always" or (policy == "nonrec" and all(
                f.method is not method for f in chain))
        return inline, policy, updates

    def _invoke_virtual(self, state, block, recv, name, args):
        av = self.eval_abs(state, recv)
        cls = None
        if isinstance(av, Static) and isinstance(av.obj, Obj):
            cls = av.obj.cls
        elif isinstance(av, Partial):
            cls = av.cls
        if self._trace is not None:
            cls = self._trace_receiver(state, recv, name, args, cls)

        if cls is not None:
            macro = self.macros.lookup_virtual(cls, name)
            if macro is not None:
                result = macro(MacroContext(self, state), recv, args)
                if result is not None:
                    self.macro_count += 1
                    self._tel_record("macro.expand", target="%s.%s"
                                     % (cls.name, name),
                                     pass_num=self.pass_count)
                    return self._apply_macro_result(state, block, result)
            try:
                method = self.linker.resolve_virtual(cls, name)
            except LinkError as exc:
                if name == "init" and not args:
                    # Zero-arg `new` of a class without a constructor.
                    state.frame.push(ConstRep(None))
                    return _CONTINUE
                raise CompilationError(str(exc))
            inline, policy, updates = self._inlines(state, method)
            if inline:
                self.inline_count += 1
                self._tel_record("inline.decision", action="inline",
                                 callee=method.qualified_name, policy=policy,
                                 pass_num=self.pass_count)
                self._push_inline(state, method, recv, args,
                                  scope_updates=updates)
                return _CONTINUE
            self._tel_record("inline.decision", action="residual",
                             callee=method.qualified_name, policy=policy,
                             pass_num=self.pass_count)
        # Residual virtual call.
        self.residual_count += 1
        self.escape(state, recv)
        for a in args:
            self.escape(state, a)
            self._note_static_write(state, a)
        sym = self.emit(state, "invoke", (name, recv) + tuple(args),
                        effect=Effect.CALL, absval=UNKNOWN)
        state.frame.push(sym)
        return _CONTINUE

    def _invoke_static(self, state, block, cls_name, name, args):
        macro = self.macros.lookup_static(cls_name, name)
        if macro is not None:
            result = macro(MacroContext(self, state), None, args)
            if result is not None:
                self.macro_count += 1
                self._tel_record("macro.expand", target="%s.%s"
                                 % (cls_name, name),
                                 pass_num=self.pass_count)
                return self._apply_macro_result(state, block, result)
        nat = lookup_native(cls_name, name)
        if nat is not None:
            # Fold pure natives over static arguments. Allocating natives
            # (e.g. split) only fold under a `freeze` scope — baking their
            # result as a static would otherwise alias one mutable object
            # across all invocations of the compiled code.
            foldable = nat.pure and not nat.calls_guest and (
                not nat.allocates or state.frame.scope.get("freeze"))
            if foldable:
                values = [self.static_value(state, a) for a in args]
                if _NO_VALUE not in values:
                    try:
                        state.frame.push(
                            self.ctx.lift(nat.fn(self.vm, *values)))
                        return _CONTINUE
                    except GuestError:
                        pass
            state.frame.push(self.emit_native(state, nat, args))
            return _CONTINUE
        try:
            method = self.linker.resolve_static(cls_name, name)
        except LinkError as exc:
            raise CompilationError(str(exc))
        inline, policy, updates = self._inlines(state, method)
        if inline:
            self.inline_count += 1
            self._tel_record("inline.decision", action="inline",
                             callee=method.qualified_name, policy=policy,
                             pass_num=self.pass_count)
            self._push_inline(state, method, None, args, scope_updates=updates)
            return _CONTINUE
        self.residual_count += 1
        self._tel_record("inline.decision", action="residual",
                         callee=method.qualified_name, policy=policy,
                         pass_num=self.pass_count)
        for a in args:
            self.escape(state, a)
            self._note_static_write(state, a)
        sym = self.emit(state, "invoke_method",
                        (self.ctx.lift_static(method), ConstRep(None))
                        + tuple(args),
                        effect=Effect.CALL, absval=UNKNOWN)
        state.frame.push(sym)
        return _CONTINUE

    # ------------------------------------------------------------------
    # Value ops: the OPSPECS table, staged
    # ------------------------------------------------------------------

    def _value_op(self, state, spec, operands, imm=None):
        """Stage an :data:`OPSPECS` opcode on ``operands`` (bottom to top)
        and immediate ``imm``: a pure op on static operands folds through
        the interpreter's helper (a fold that raises stays residual),
        anything else goes to its rule in :data:`_STAGING_RULES`. ALEN
        folds only by its own rule, gated on ``assume_static_arrays``."""
        if spec.effect is Effect.PURE and spec.op is not Op.ALEN:
            values = [self.static_value(state, r) for r in operands]
            if all(v is not _NO_VALUE for v in values):
                if spec.imm:
                    values.append(imm)
                try:
                    return self.ctx.lift(spec.helper(*values))
                except GuestError:
                    pass
        return _STAGING_RULES[spec.op](self, state, spec,
                                       *spec.ir_args(operands, imm))

    def _neg(self, state, spec, a):
        hint = self.eval_abs(state, a).type_hint()
        flags = {"num": True} if hint == "num" else None
        return self.emit(state, "neg", (a,), flags=flags,
                         absval=Unknown(ty=hint))

    def _not(self, state, spec, a):
        return self.emit(state, "not", (a,), absval=Unknown(ty="bool"))

    def _new_array(self, state, spec, n):
        av = self.eval_abs(state, n)
        if isinstance(av, Const) and isinstance(av.value, int) \
                and 0 <= av.value <= 4096:
            return self._virtual(state, HeapEntry(
                "arr", elems=[ConstRep(None)] * av.value))
        sym = self.emit(state, "new_array", (n,), effect=Effect.ALLOC,
                        absval=Unknown(ty="arr", nonnull=True))
        self._fresh_arrays.add(sym.name)
        return sym

    # -- heap operations (paper 2.2: the getFieldObject shortcut et al.) ------

    def _getfield(self, state, spec, obj, name):
        av = self.eval_abs(state, obj)
        if isinstance(av, Partial):
            if name in av.fields:
                return av.fields[name]
            if av.cls.field_info(name) is None:
                raise CompilationError("no field %r on %s"
                                       % (name, av.cls.name))
            return ConstRep(None)
        if isinstance(av, Static) and isinstance(av.obj, Obj):
            finfo = av.obj.cls.field_info(name)
            if finfo is None:
                raise CompilationError("no field %r on %s"
                                       % (name, av.obj.cls.name))
            # The paper's `case Static(x) if field.isFinal => read it now`.
            if finfo.is_val and self.options.fold_val_fields:
                return self.ctx.lift(av.obj.get(name))
            if name in av.obj.cls.stable_fields \
                    and self.options.speculate_stable:
                # @stable speculation (paper 3.2): fold the current value;
                # writes invalidate the compiled code.
                self.stable_deps.append((av.obj, name))
                return self.ctx.lift(av.obj.get(name))
            key = ("f", id(av.obj), name)
            hit = self._forward.get(key)
            if hit is not None:
                return hit
            sym = self.emit(state, "getfield", (obj, name),
                            effect=Effect.READ,
                            flags={"objfast": True,
                                   "static_id": id(av.obj)},
                            absval=UNKNOWN)
            self._forward[key] = sym
            return sym
        flags = None
        hint = av.type_hint()
        if hint is not None and hint.startswith("obj") and av.nonnull():
            flags = {"objfast": True}
        return self.emit(state, "getfield", (obj, name), effect=Effect.READ,
                         flags=flags, absval=UNKNOWN)

    def _putfield(self, state, spec, obj, name, value):
        if isinstance(obj, Sym):
            entry = state.heap.get(obj.name)
            if entry is not None and not entry.materialized:
                if entry.cls.field_info(name) is None:
                    raise CompilationError("no field %r on %s"
                                           % (name, entry.cls.name))
                entry.fields[name] = value
                return
        av = self.eval_abs(state, obj)
        self.escape(state, value)
        flags = None
        hint = av.type_hint()
        if hint is not None and hint.startswith("obj") and av.nonnull():
            # Writes to @stable fields must run invalidation, so they take
            # the slow helper even on known objects.
            stable = isinstance(av, Static) and isinstance(av.obj, Obj) \
                and name in av.obj.cls.stable_fields
            if not stable:
                flags = {"objfast": True}
                if isinstance(av, Static):
                    flags["static_id"] = id(av.obj)
        else:
            self._forward.clear()
        self.emit(state, "putfield", (obj, name, value), effect=Effect.WRITE,
                  flags=flags)
        if isinstance(av, Static) and isinstance(av.obj, Obj):
            self._forward[("f", id(av.obj), name)] = value

    def _aload(self, state, spec, arr, i):
        av_arr = self.eval_abs(state, arr)
        av_i = self.eval_abs(state, i)
        if isinstance(av_arr, PartialArray) and isinstance(av_i, Const):
            idx = av_i.value
            if isinstance(idx, int) and 0 <= idx < len(av_arr.elems):
                return av_arr.elems[idx]
        if isinstance(av_arr, Static) and isinstance(av_arr.obj, list) \
                and isinstance(av_i, Const) \
                and self.options.assume_static_arrays \
                and id(av_arr.obj) not in self._written_statics:
            try:
                return self.ctx.lift(spec.helper(av_arr.obj, av_i.value))
            except GuestError:
                pass
        if isinstance(arr, Sym):
            self.escape(state, arr)
        flags = None
        key = None
        hint = av_arr.type_hint()
        const_idx = (isinstance(av_i, Const) and isinstance(av_i.value, int)
                     and not isinstance(av_i.value, bool))
        if isinstance(av_arr, Static) and isinstance(av_arr.obj, list) \
                and const_idx and 0 <= av_i.value < len(av_arr.obj):
            # Array lengths are immutable, so a constant in-range index on
            # a pre-existing array can compile to a direct subscript.
            flags = {"fast": True, "static_id": id(av_arr.obj)}
            key = ("arr", id(av_arr.obj), av_i.value)
            hit = self._forward.get(key)
            if hit is not None:
                return hit
        elif hint is not None and hint.startswith("arr") and av_arr.nonnull() \
                and const_idx and av_i.value >= 0:
            flags = {"known_arr": True}
        elem_ty = "str" if hint == "arr:str" else None
        sym = self.emit(state, "aload", (arr, i), effect=Effect.READ,
                        flags=flags,
                        absval=Unknown(ty=elem_ty, nonnull=elem_ty is not None))
        if key is not None:
            self._forward[key] = sym
        return sym

    def _astore(self, state, spec, arr, i, v):
        if isinstance(arr, Sym):
            entry = state.heap.get(arr.name)
            if entry is not None and not entry.materialized \
                    and entry.kind == "arr":
                av_i = self.eval_abs(state, i)
                if isinstance(av_i, Const) and isinstance(av_i.value, int) \
                        and 0 <= av_i.value < len(entry.elems):
                    entry.elems[av_i.value] = v
                    return
            self.escape(state, arr)
        self._note_static_write(state, arr)
        self.escape(state, v)
        av_arr = self.eval_abs(state, arr)
        av_i = self.eval_abs(state, i)
        flags = None
        key = None
        if isinstance(av_arr, Static) and isinstance(av_arr.obj, list) \
                and isinstance(av_i, Const) and isinstance(av_i.value, int) \
                and not isinstance(av_i.value, bool) \
                and 0 <= av_i.value < len(av_arr.obj):
            flags = {"fast": True, "static_id": id(av_arr.obj)}
            key = ("arr", id(av_arr.obj), av_i.value)
        else:
            # Unknown target may alias anything we forward.
            self._forward.clear()
        self.emit(state, "astore", (arr, i, v), effect=Effect.WRITE,
                  flags=flags)
        if key is not None:
            self._forward[key] = v

    def _note_static_write(self, state, rep):
        """Record that a pre-existing array is mutated by compiled code;
        folds of its reads (from earlier passes) must be redone."""
        av = self.eval_abs(state, rep)
        if isinstance(av, Static) and isinstance(av.obj, list):
            if id(av.obj) not in self._written_statics:
                self._written_statics.add(id(av.obj))
                self._pass_changed = True

    def _alen(self, state, spec, arr):
        av = self.eval_abs(state, arr)
        if isinstance(av, PartialArray):
            return ConstRep(len(av.elems))
        if isinstance(av, Static) and isinstance(av.obj, (list, str)) \
                and self.options.assume_static_arrays:
            return ConstRep(len(av.obj))
        if isinstance(av, Const) and isinstance(av.value, str):
            return ConstRep(len(av.value))
        flags = {"arrfast": True} if av.type_hint() in ("arr", "str") \
            and av.nonnull() else None
        return self.emit(state, "alen", (arr,), flags=flags,
                         absval=Unknown(ty="num"))

    def _instanceof(self, state, spec, rep, cls_name):
        av = self.eval_abs(state, rep)
        if isinstance(av, Partial):
            return ConstRep(av.cls.is_subclass_of(cls_name))
        hint = av.type_hint()
        if hint is not None and hint.startswith("obj:"):
            cls = self.linker.classes.get(hint[4:])
            if cls is not None and cls.is_subclass_of(cls_name):
                return ConstRep(True)
        if hint in ("num", "bool", "str", "arr"):
            return ConstRep(False)
        return self.emit(state, "instanceof", (rep, cls_name),
                         absval=Unknown(ty="bool"))

    # -- arithmetic (paper 2.2's infix_+ rewrite, generalized) ----------------

    def _binop(self, state, spec, a, b):
        opname = spec.ir
        av_a = self.eval_abs(state, a)
        av_b = self.eval_abs(state, b)
        ta, tb = av_a.type_hint(), av_b.type_hint()
        flags = None
        result_ty = None
        op = opname
        if opname in ("add", "sub", "mul", "div", "mod"):
            if ta == "num" and tb == "num":
                if opname in ("add", "sub", "mul"):
                    flags = {"num": True}
                result_ty = "num"
            elif opname == "add" and ta == "str" and tb == "str":
                op = "concat"
                result_ty = "str"
            elif opname == "add" and ("str" in (ta, tb)):
                result_ty = "str"
        else:
            result_ty = "bool"
            if ta == "num" and tb == "num":
                flags = {"num": True}
            elif ta == "str" and tb == "str":
                flags = {"num": True}
            elif opname in ("eq", "ne") and (isinstance(av_a, Const)
                                             or isinstance(av_b, Const)):
                # Python == agrees with guest_eq whenever one side is a
                # primitive constant (Obj/array identity still works out).
                flags = {"num": True}
        # Algebraic simplifications on partially-static operands.
        simplified = self._algebraic(opname, a, b, av_a, av_b)
        if simplified is not None:
            return simplified
        sym = self.emit(state, op, (a, b), flags=flags,
                        absval=Unknown(ty=result_ty))
        # Type refinement: an order comparison that executes without
        # raising proves its operands comparable; with one side numeric,
        # the other is numeric in everything that follows.
        if opname in ("lt", "le", "gt", "ge"):
            if ta == "num" and tb is None and isinstance(b, Sym):
                self.ctx.abs[b.name] = Unknown(ty="num", nonnull=True)
            elif tb == "num" and ta is None and isinstance(a, Sym):
                self.ctx.abs[a.name] = Unknown(ty="num", nonnull=True)
        return sym

    @staticmethod
    def _algebraic(opname, a, b, av_a, av_b):
        def is_const(av, v):
            return isinstance(av, Const) and av.value == v \
                and not isinstance(av.value, bool)
        if opname == "add":
            if is_const(av_a, 0) and av_b.type_hint() == "num":
                return b
            if is_const(av_b, 0) and av_a.type_hint() == "num":
                return a
        elif opname == "sub":
            if is_const(av_b, 0) and av_a.type_hint() == "num":
                return a
        elif opname == "mul":
            if is_const(av_a, 1) and av_b.type_hint() == "num":
                return b
            if is_const(av_b, 1) and av_a.type_hint() == "num":
                return a
        elif opname == "div":
            if is_const(av_b, 1) and av_a.type_hint() == "num":
                return a
        return None


#: Each value opcode's staging rule, for what :meth:`_value_op` does not
#: fold: ``rule(machine, state, spec, *ir_args)``.
_STAGING_RULES = {
    Op.NEG: StagedInterpreter._neg,
    Op.NOT: StagedInterpreter._not,
    Op.GETFIELD: StagedInterpreter._getfield,
    Op.PUTFIELD: StagedInterpreter._putfield,
    Op.INSTANCEOF: StagedInterpreter._instanceof,
    Op.NEW_ARRAY: StagedInterpreter._new_array,
    Op.ALOAD: StagedInterpreter._aload,
    Op.ASTORE: StagedInterpreter._astore,
    Op.ALEN: StagedInterpreter._alen,
}
_STAGING_RULES.update(dict.fromkeys(
    (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.EQ, Op.NE, Op.LT, Op.LE,
     Op.GT, Op.GE), StagedInterpreter._binop))


class _NoValueType:
    def __repr__(self):
        return "<no value>"


_NO_VALUE = _NoValueType()


def _states_equal(a, b):
    """Structural equality of two states (same reps in every slot)."""
    fa, fb = a.frame.chain(), b.frame.chain()
    if len(fa) != len(fb):
        return False
    for x, y in zip(fa, fb):
        if x.method is not y.method or x.bci != y.bci or x.tos != y.tos:
            return False
        if x.locals[:x.tos] != y.locals[:y.tos]:
            return False
    return True
