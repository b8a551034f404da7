"""Compiled code objects: guards, deoptimization, invalidation, OSR.

:class:`CompiledFunction` wraps a generated Python function. When a guard
fails the generated code raises :class:`DeoptException`; the wrapper
rebuilds the interpreter frames recorded in the deopt metadata and resumes
interpretation (paper 3.2, ``slowpath``), or — for ``stable`` guards —
additionally invalidates itself so the next call recompiles against the
new value (``fastpath``-style recompilation).

:class:`ContinuationClosure` is the runtime face of ``shiftR``: a captured
continuation that, when invoked, resumes the interpreter at its capture
point with the argument pushed.
"""

from __future__ import annotations

from repro.compiler.deopt import DeoptException, reconstruct_frames


class CompiledFunction:
    """A JIT-compiled guest closure/method, callable from host and guest.

    Attributes of interest to users (the paper's "reflective high-level
    API"): ``source`` (generated Python), ``deopt_count``,
    ``compile_count``, ``warnings``, ``invalidated_reason``.
    """

    def __init__(self, jit, fn, source, metas, recompile=None, name="unit",
                 warnings=()):
        self.jit = jit
        self.vm = jit.vm
        self.fn = fn
        self.source = source
        self.metas = metas
        self.name = name
        self.warnings = list(warnings)
        self._recompile = recompile
        self.valid = True
        self.invalidated_reason = None
        self.deopt_count = 0
        self.compile_count = 1
        # (obj, field) pairs of the @stable fields this code read.
        self.stable_deps = ()
        # Set when this unit was stored in / loaded from the persistent
        # code cache; invalidation then reaches through to disk.
        self.persist_key = None

    # -- invalidation / recompilation ------------------------------------------

    def invalidate(self, reason):
        """Discard this compiled code; the next call recompiles. A unit
        backed by a persistent-cache entry drops that entry too: the
        reason we are invalid (a stable value changed, a @stable field
        was written) outlives the process exactly like the entry does."""
        self.valid = False
        self.invalidated_reason = reason
        if self.persist_key is not None:
            codecache = getattr(self.jit, "codecache", None)
            if codecache is not None:
                codecache.invalidate(self.persist_key, reason=reason)
            self.persist_key = None
        tel = getattr(self.jit, "telemetry", None)
        if tel is not None:
            tel.inc("invalidations")
            tel.record("invalidate", unit=self.name, reason=reason)

    def recompile(self):
        if self._recompile is None:
            raise RuntimeError("%s cannot be recompiled" % self.name)
        fresh = self._recompile()
        self.fn = fresh.fn
        self.source = fresh.source
        self.metas = fresh.metas
        self.warnings = fresh.warnings
        self._adopt_stable_deps(fresh)
        self.valid = True
        self.invalidated_reason = None
        self.compile_count += 1
        return self

    def _adopt_stable_deps(self, fresh):
        """The rebuild registered the throwaway ``fresh`` unit on the
        @stable fields its code read; this unit runs that code now, so
        it is the one a later write must invalidate."""
        self.stable_deps = fresh.stable_deps
        for obj, field in fresh.stable_deps:
            obj.add_stable_dep(field, self, replaces=fresh)

    # -- execution ----------------------------------------------------------------

    def __call__(self, *args):
        if not self.valid:
            self.recompile()
        try:
            return self.fn(*args)
        except DeoptException as deopt:
            return self._deoptimize(deopt)
        except IndexError as exc:
            # Direct subscripts in fast paths surface Python IndexError;
            # re-raise with the interpreter's error type.
            from repro.errors import GuestIndexError
            raise GuestIndexError(str(exc))

    def _deoptimize(self, deopt):
        self.deopt_count += 1
        meta = self.metas[deopt.meta_id]
        kind = getattr(meta, "kind", "interpret")
        tel = getattr(self.jit, "telemetry", None)
        if tel is not None:
            tel.inc("deopts")
            if meta.reason in ("guard", "stable"):
                tel.inc("guard_failures")
            tel.record("deopt", unit=self.name, kind=kind,
                       reason=meta.reason,
                       method=meta.frames[-1].method.qualified_name,
                       bci=meta.frames[-1].bci)
        if kind == "recompile":
            # `stable` guard: recompile for future calls, finish this one
            # in the interpreter.
            self.invalidate("stable guard failed (%s)" % meta.reason)
        tiers = getattr(self.jit, "tiers", None)
        if tiers is not None:
            # Deopt storms demote tiered units (budget lives in the policy).
            tiers.on_deopt(self)
        trace_owner = getattr(self, "trace_owner", None)
        if trace_owner is not None:
            # Trace side exit: count it, and possibly arm bridge
            # recording *before* we resume interpreting, so the recorder
            # shadows exactly the execution the deopt is about to run.
            trace_owner.on_exit(deopt.meta_id)
        leaf = reconstruct_frames(meta, deopt.lives)
        return self.vm.run_frames(leaf)

    def __repr__(self):
        state = "valid" if self.valid else "invalidated"
        return "<CompiledFunction %s (%s, %d deopts)>" % (
            self.name, state, self.deopt_count)


class ContinuationClosure:
    """A reified continuation (``shiftR``). One-shot semantics are not
    enforced; each invocation rebuilds fresh frames, so calling it twice
    replays the continuation (usable for generators/retry patterns)."""

    def __init__(self, vm, meta, lives):
        self.vm = vm
        self.meta = meta
        self.lives = lives

    def __call__(self, *args):
        if len(args) > 1:
            raise TypeError("continuation takes at most one argument")
        leaf = reconstruct_frames(self.meta, self.lives)
        leaf.push(args[0] if args else None)
        return self.vm.run_frames(leaf)

    def __repr__(self):
        return "<continuation at %s@%d>" % (
            self.meta.frames[-1].method.qualified_name,
            self.meta.frames[-1].bci)
