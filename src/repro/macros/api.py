"""The macro-side API: directives and the :class:`MacroContext`.

A macro is a host function ``fn(ctx, recv_rep, arg_reps)`` returning:

* a ``Rep`` — the staged value replacing the call;
* ``None`` — decline; the call is handled normally;
* a *directive*:

  - :class:`MacroInline` — inline a (possibly synthesized) method with
    given Rep arguments; ``on_return(machine, state, rep)`` may chain
    another directive. This is how ``funR`` materializes: unfolding a
    staged closure substitutes Rep arguments for its parameters.
  - :class:`SlowpathDirective` — terminate compilation of this path with a
    transfer to the interpreter (paper: ``slowpath``/OSR-out).
  - :class:`FastpathDirective` — terminate with on-the-fly recompilation of
    the current continuation (paper: ``fastpath``).
  - :class:`ReturnDirective` — abort the current continuation and make the
    given value the result of the compiled unit (``shiftR`` consuming the
    continuation).
"""

from __future__ import annotations

from repro.absint.absval import Const, Partial, PartialArray, Static, Unknown
from repro.bytecode.opcodes import Op
from repro.errors import FreezeError, MaterializeError
from repro.interp.handlers import OPSPECS
from repro.lms.ir import Effect
from repro.lms.rep import ConstRep, StaticRep, Sym


class MacroInline:
    def __init__(self, method, args, receiver=None, scope_updates=None,
                 on_return=None):
        self.method = method
        self.args = list(args)
        self.receiver = receiver          # Rep or None for statics
        self.scope_updates = scope_updates or {}
        self.on_return = on_return

    def __repr__(self):
        return "MacroInline(%s)" % self.method.qualified_name


class SlowpathDirective:
    """Deoptimize here; ``result`` is the value the intercepted call
    produces when re-executed by the interpreter."""

    def __init__(self, result=None):
        self.result = result


class FastpathDirective:
    """Recompile the continuation with current values as constants."""

    def __init__(self, result=None):
        self.result = result


class ReturnDirective:
    """Discard the current continuation; return ``rep`` from the unit."""

    def __init__(self, rep):
        self.rep = rep


class MacroContext:
    """What a macro sees: the compiler's internals, scoped to the current
    machine state (paper 2.3: "macros can easily interface with the
    compiler internals")."""

    def __init__(self, machine, state):
        self.machine = machine
        self.state = state
        self.vm = machine.vm

    # -- staged-value introspection ------------------------------------------

    @property
    def ctx(self):
        return self.machine.ctx

    def eval_abs(self, rep):
        """``evalA``: abstract information about a staged value."""
        return self.machine.eval_abs(self.state, rep)

    def lift(self, value):
        """``liftConst``: embed a concrete value."""
        return self.machine.ctx.lift(value)

    def eval_m(self, rep):
        """``evalM``: materialize a staged value back to a concrete one.

        Follows the paper's implementation: statics are returned directly;
        ``Partial`` objects are allocated and their fields recursively
        materialized; anything dynamic raises :class:`MaterializeError`.
        """
        return self.machine.eval_m(self.state, rep)

    def freeze_eval(self, thunk_rep):
        """Materialize a thunk closure and run it at JIT-compile time."""
        try:
            thunk = self.eval_m(thunk_rep)
        except MaterializeError as exc:
            raise FreezeError(
                "freeze: argument cannot be evaluated at compile time: %s"
                % exc)
        try:
            value = self.vm.call_closure(thunk, [])
        except Exception as exc:
            raise FreezeError("freeze: compile-time evaluation failed: %s"
                              % exc)
        return value

    def closure_apply_method(self, rep):
        """Resolve the ``apply`` method of a staged closure (for funR-style
        unfolding); raises if the closure's class is not statically known."""
        av = self.eval_abs(rep)
        if isinstance(av, Static):
            from repro.runtime.objects import Obj
            if not isinstance(av.obj, Obj):
                raise MaterializeError("not a guest closure: %r" % (av.obj,))
            cls = av.obj.cls
        elif isinstance(av, Partial):
            cls = av.cls
        else:
            raise MaterializeError(
                "funR: closure target is not statically known (%r)" % (av,))
        method = cls.lookup_method("apply")
        if method is None:
            raise MaterializeError("no apply method on %s" % cls.name)
        return method

    def fun_r(self, closure_rep, args, on_return=None, scope_updates=None):
        """``funR``: unfold a staged closure applied to staged arguments.

        Returns a :class:`MacroInline` directive the machine executes; the
        closure body is inlined with ``args`` substituted for parameters.
        """
        method = self.closure_apply_method(closure_rep)
        return MacroInline(method, args, receiver=closure_rep,
                           on_return=on_return, scope_updates=scope_updates)

    # -- emission ---------------------------------------------------------------

    def escape(self, rep):
        """Materialize a scalar-replaced allocation because the macro is
        about to embed it in residual code."""
        self.machine.escape(self.state, rep)
        return rep

    def get_field(self, rep, name):
        """Read ``rep.name`` through the optimizer (folds val fields of
        static/partial receivers) — lets virtual-method macros reach their
        receiver's state, as the paper's OptiML macros do."""
        return self.machine._value_op(self.state, OPSPECS[Op.GETFIELD],
                                      (rep,), name)

    def emit(self, op, args, effect=Effect.PURE, flags=None, absval=None):
        merged_flags = dict(self.machine.emit_flags(self.state))
        if flags:
            merged_flags.update(flags)
        return self.machine.ctx.emit(op, args, effect=effect,
                                     flags=merged_flags, absval=absval)

    def emit_native_call(self, native, args, absval=None):
        return self.machine.emit_native(self.state, native, args)

    def warn(self, message):
        self.machine.ctx.warn(message)

    # -- speculation ----------------------------------------------------------------

    def guard(self, cond_rep, result_value, kind="interpret", expect=True):
        """Emit a guard: if ``cond_rep`` is not ``expect`` at runtime,
        deoptimize (``kind='interpret'``) or recompile (``'recompile'``);
        the intercepted call's value on the deopt path is
        ``result_value``."""
        return self.machine.emit_guard(self.state, cond_rep, result_value,
                                       kind=kind, expect=expect)

    # -- scope -------------------------------------------------------------------------

    def scope(self):
        return self.state.frame.scope

    def scope_get(self, name, default=None):
        return self.state.frame.scope.get(name, default)
