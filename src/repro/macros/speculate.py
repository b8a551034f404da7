"""Speculation macros: likely / speculate / stable (paper 3.2).

* ``likely(cond)`` — an optimization contract: the test will likely
  succeed. (We record it; a profiling VM could verify it.)
* ``speculate(cond)`` — assume the test always succeeds: the conditional
  folds to its then-branch and a guard deoptimizes to the interpreter when
  the assumption fails (``slowpath``).
* ``stable(expr)`` — snapshot the value at compile time and guard on it;
  a failing guard *recompiles* with the new value (``fastpath``-style)
  rather than staying in the interpreter.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.interp.handlers import OPSPECS


def likely(ctx, recv, args):
    cond = args[0]
    av = ctx.eval_abs(cond)
    # Contract only: if the fact is statically refuted, surface a warning
    # (the paper: "cause the VM to signal a warning").
    from repro.absint.absval import Const
    if isinstance(av, Const) and not av.value:
        ctx.warn("likely(cond) is statically false")
    return cond


def speculate(ctx, recv, args):
    cond = args[0]
    av = ctx.eval_abs(cond)
    from repro.absint.absval import Const
    if isinstance(av, Const):
        if not av.value:
            ctx.warn("speculate(cond) is statically false")
        return cond
    # Guard: if cond is false at runtime, deoptimize; the interpreter
    # re-executes with speculate(...) == False (paper:
    #   def speculate(x) = if (x) true else { slowpath(); false }).
    ctx.guard(cond, result_value=False, kind="interpret", expect=True)
    return ctx.lift(True)


def stable(ctx, recv, args):
    """``stable(x)``: x is expected to change rarely. Compile against the
    current value; on change, recompile (paper:
    ``if (x == c) c else { fastpath(); x }``)."""
    thunk = args[0]
    snapshot = ctx.freeze_eval(thunk)
    lifted = ctx.lift(snapshot)

    def after(machine, state, x_rep):
        av = machine.eval_abs(state, x_rep)
        if av.is_static_value:
            # The dynamic read folded, too — no guard needed.
            return machine.ctx.lift(machine.static_value(state, x_rep))
        eq = machine._value_op(state, OPSPECS[Op.EQ], (x_rep, lifted))
        # reason="stable" flows into the deopt meta and from there into
        # the invalidation reason — a persistent-cache entry dropped by
        # this guard records *why* it is gone.
        machine.emit_guard(state, eq, result=x_rep, kind="recompile",
                           reason="stable")
        return lifted

    return ctx.fun_r(thunk, [], on_return=after)
