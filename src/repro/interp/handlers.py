"""Per-opcode handlers: the single source of truth for guest semantics.

Each MiniJVM opcode is implemented by one small function over the shared
frame protocol (``push``/``pop``/``peek``/``locals``/``bci``). One
definition of the semantics, four executions of it: the interpreter's
dispatch loop indexes :data:`DISPATCH`; the Druid-style baseline
(:mod:`repro.baseline.templates`) template-compiles each :data:`OPSPECS`
entry to CPython bytecode calling the *same* :mod:`repro.runtime.ops`
helpers; the staged interpreter (which also stages Tier T's traces)
runs the :data:`STACK_OPS` handlers over frames of staged values, folds
a pure :data:`OPSPECS` op on constant operands through its helper, and
otherwise emits its declared IR op and effect. That is the property the
paper's tier ladder (and our OSR/deopt machinery) relies on.

Handler contract::

    handler(vm, frame, arg) -> None | InterpreterFrame | _Return

* ``None`` — stay on the current frame (``frame.bci`` already advanced
  by the loop, branch handlers overwrite it);
* an ``InterpreterFrame`` — switch to it (a callee frame on INVOKE, the
  parent frame on RET);
* ``_Return(value)`` — the root frame returned: the loop is done.

Loop-owned concerns stay out of the handlers: the instruction budget,
the Tier-T recording hook, and loop back-edge profiling/OSR (the loop
inspects ``Op.JUMP`` results itself so the hot non-profiling path pays
nothing for them).
"""

from __future__ import annotations

from repro.bytecode.opcodes import STACK_EFFECT, Op
from repro.lms.ir import Effect
from repro.runtime import ops
from repro.runtime.objects import new_instance


class _Return:
    """Signal: the root frame returned ``value``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


# -- the declarative value-op table -------------------------------------------


class OpSpec:
    """Declarative semantics of one value opcode: the shared runtime
    helper implementing it (operands bottom-to-top, then the immediate
    if ``imm``), its stack arity (from ``STACK_EFFECT``), and the IR op
    ``ir`` it stages to with that op's ``effect``. IR arguments place the
    immediate after the first operand (:meth:`ir_args`)."""

    __slots__ = ("op", "helper", "pops", "pushes", "imm", "ir", "effect")

    def __init__(self, op, helper, imm=False, effect=Effect.PURE):
        self.op = op
        self.helper = helper
        self.pops, self.pushes = STACK_EFFECT[op]
        self.imm = imm
        self.ir = op.name.lower()
        self.effect = effect

    def ir_args(self, operands, imm):
        if self.imm:
            return (operands[0], imm, *operands[1:])
        return tuple(operands)


OPSPECS = {
    spec.op: spec for spec in [
        OpSpec(Op.ADD, ops.guest_add),
        OpSpec(Op.SUB, ops.guest_sub),
        OpSpec(Op.MUL, ops.guest_mul),
        OpSpec(Op.DIV, ops.guest_div),
        OpSpec(Op.MOD, ops.guest_mod),
        OpSpec(Op.EQ, ops.guest_eq),
        OpSpec(Op.NE, ops.guest_ne),
        OpSpec(Op.LT, ops.guest_lt),
        OpSpec(Op.LE, ops.guest_le),
        OpSpec(Op.GT, ops.guest_gt),
        OpSpec(Op.GE, ops.guest_ge),
        OpSpec(Op.NEG, ops.guest_neg),
        OpSpec(Op.NOT, ops.guest_not),
        OpSpec(Op.ALOAD, ops.guest_aload, effect=Effect.READ),
        OpSpec(Op.ASTORE, ops.guest_astore, effect=Effect.WRITE),
        OpSpec(Op.ALEN, ops.guest_alen),
        OpSpec(Op.NEW_ARRAY, ops.guest_newarray, effect=Effect.ALLOC),
        OpSpec(Op.GETFIELD, ops.guest_getfield, imm=True,
               effect=Effect.READ),
        OpSpec(Op.PUTFIELD, ops.guest_setfield, imm=True,
               effect=Effect.WRITE),
        OpSpec(Op.INSTANCEOF, ops.guest_instanceof, imm=True),
        # A terminator in staging: the one table opcode the staged
        # interpreter handles by its own case.
        OpSpec(Op.THROW, ops.guest_throw, effect=Effect.IO),
    ]
}


def _handler_2_1(helper):
    def handler(vm, frame, arg):
        b = frame.pop()
        a = frame.pop()
        frame.push(helper(a, b))
    return handler


def _handler_1_1(helper):
    def handler(vm, frame, arg):
        frame.push(helper(frame.pop()))
    return handler


def _handler_1_0(helper):
    def handler(vm, frame, arg):
        helper(frame.pop())
    return handler


def _handler_3_0(helper):
    def handler(vm, frame, arg):
        v = frame.pop()
        i = frame.pop()
        a = frame.pop()
        helper(a, i, v)
    return handler


def _handler_1_1_imm(helper):
    def handler(vm, frame, arg):
        frame.push(helper(frame.pop(), arg))
    return handler


def _handler_2_0_imm(helper):
    def handler(vm, frame, arg):
        v = frame.pop()
        a = frame.pop()
        helper(a, v, arg)
    return handler


_HANDLER_FACTORIES = {
    (2, 1, False): _handler_2_1,
    (1, 1, False): _handler_1_1,
    (1, 0, False): _handler_1_0,
    (3, 0, False): _handler_3_0,
    (1, 1, True): _handler_1_1_imm,
    (2, 0, True): _handler_2_0_imm,
}


def spec_handler(spec):
    """Build the interpreter handler for one :class:`OpSpec`."""
    return _HANDLER_FACTORIES[(spec.pops, spec.pushes, spec.imm)](spec.helper)


# -- constants, locals, stack shuffling ---------------------------------------


def _op_const(vm, frame, arg):
    frame.push(arg)


def _op_load(vm, frame, arg):
    frame.push(frame.locals[arg])


def _op_store(vm, frame, arg):
    frame.locals[arg] = frame.pop()


def _op_pop(vm, frame, arg):
    frame.pop()


def _op_dup(vm, frame, arg):
    frame.push(frame.peek())


def _op_swap(vm, frame, arg):
    a = frame.pop()
    b = frame.pop()
    frame.push(a)
    frame.push(b)


def _op_array_lit(vm, frame, arg):
    vals = [frame.pop() for __ in range(arg)]
    vals.reverse()
    frame.push(vals)


# -- control flow -------------------------------------------------------------


def _op_jump(vm, frame, arg):
    frame.bci = arg


def _op_jif_true(vm, frame, arg):
    if frame.pop():
        frame.bci = arg


def _op_jif_false(vm, frame, arg):
    if not frame.pop():
        frame.bci = arg


def _return_to_parent(frame, value):
    parent = frame.parent
    if parent is None:
        return _Return(value)
    parent.push(value)
    return parent


def _op_ret(vm, frame, arg):
    return _return_to_parent(frame, None)


def _op_ret_val(vm, frame, arg):
    return _return_to_parent(frame, frame.pop())


# -- objects and calls --------------------------------------------------------


def _op_new(vm, frame, arg):
    frame.push(new_instance(vm.linker.resolve_class(arg)))


def _op_invoke(vm, frame, arg):
    name, argc = arg
    args = [frame.pop() for __ in range(argc)]
    args.reverse()
    receiver = frame.pop()
    return vm._invoke_virtual(frame, receiver, name, args)


def _op_invoke_static(vm, frame, arg):
    cls_name, name, argc = arg
    args = [frame.pop() for __ in range(argc)]
    args.reverse()
    return vm._invoke_static(frame, cls_name, name, args)


# -- the dispatch table -------------------------------------------------------

#: Opcodes that only move values between locals and the operand stack:
#: every engine runs their :data:`DISPATCH` handlers over its own frames.
STACK_OPS = frozenset({Op.LOAD, Op.STORE, Op.POP, Op.DUP, Op.SWAP})


def _build_dispatch():
    table = [None] * (max(Op) + 1)
    for spec in OPSPECS.values():
        table[spec.op] = spec_handler(spec)
    table[Op.CONST] = _op_const
    table[Op.LOAD] = _op_load
    table[Op.STORE] = _op_store
    table[Op.POP] = _op_pop
    table[Op.DUP] = _op_dup
    table[Op.SWAP] = _op_swap
    table[Op.ARRAY_LIT] = _op_array_lit
    table[Op.JUMP] = _op_jump
    table[Op.JIF_TRUE] = _op_jif_true
    table[Op.JIF_FALSE] = _op_jif_false
    table[Op.RET] = _op_ret
    table[Op.RET_VAL] = _op_ret_val
    table[Op.NEW] = _op_new
    table[Op.INVOKE] = _op_invoke
    table[Op.INVOKE_STATIC] = _op_invoke_static
    return table


#: handler per opcode, indexed by ``int(op)``; ``None`` = bad opcode.
DISPATCH = _build_dispatch()
