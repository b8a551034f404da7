"""Per-opcode CPython bytecode templates, driven by the handler table.

Each MiniJVM opcode lowers to a short host-instruction sequence. Value
opcodes are not re-implemented here: the template for every opcode in
:data:`repro.interp.handlers.OPSPECS` is *generated from the spec* — a
call to the same :mod:`repro.runtime.ops` helper the interpreter handler
invokes, operands passed bottom-to-top, immediate last. The baseline
therefore cannot drift from the interpreter on arithmetic, comparison,
array, field, or throw semantics: both executions share one definition
(the Druid derivation; see DESIGN.md).

Calling convention: CPython 3.11 wants ``NULL, callable, args...`` on
the stack, but guest operands are *under* where the callable must go.
Each helper call spills its operands to scratch locals, pushes the
callable, and reloads them — three scratch slots cover the deepest
fixed-arity opcode (ASTORE).

Guest locals map 1:1 onto host fast locals (parameters first, exactly
the interpreter frame layout), so the OSR exit can reconstruct an
:class:`~repro.interp.frame.InterpreterFrame` from ``locals()`` order.
Non-parameter locals are None-initialized in the prologue because the
interpreter reads uninitialized slots as null, while CPython raises on
unbound fast locals.

Profiling stays live inside baseline code — the ``_enter`` prologue
call counts invocations, and every counted loop back-edge (a backward
``JUMP`` at static stack depth 0, the same condition the interpreter's
OSR hook uses) calls ``_be``; a truthy answer takes the adjacent OSR
exit, shipping the loop-header bci and a snapshot of the guest locals
to the tier controller. Backward jumps at non-zero depth (short-
circuit operators) jump plainly: the interpreter does not count or
OSR those either.
"""

from __future__ import annotations

from repro.bytecode.opcodes import STACK_EFFECT, Op
from repro.interp.handlers import OPSPECS
from repro.baseline.pyasm import PyAssembler

#: scratch fast-locals appended after the guest slots (CPython never
#: sees these names; the dot prefix mirrors its own synthetic locals).
SCRATCH = (".s0", ".s1", ".s2")

#: every helper name a baseline unit may reference as a global; the
#: binder (compiler.baseline_namespace) and the persistent-cache
#: rehydrate path both build namespaces from this contract.
RUNTIME_NAMES = ("_enter", "_be", "_osr", "_new", "_callv", "_calls")


def stack_depths(code):
    """Static operand-stack depth at each instruction (forward scan;
    ``None`` marks unreachable instructions). The verifier guarantees
    depths merge consistently, so first-reach wins."""
    n = len(code)
    depths = [None] * n
    effect = STACK_EFFECT
    op_jump, op_jt, op_jf = Op.JUMP, Op.JIF_TRUE, Op.JIF_FALSE
    op_ret, op_rv, op_throw = Op.RET, Op.RET_VAL, Op.THROW
    op_inv, op_invs, op_al = Op.INVOKE, Op.INVOKE_STATIC, Op.ARRAY_LIT
    work = [(0, 0)]
    pop = work.pop
    push = work.append
    while work:
        i, depth = pop()
        if i >= n or depths[i] is not None:
            continue
        depths[i] = depth
        ins = code[i]
        op = ins.op
        if op is op_inv:
            after = depth - ins.arg[1]        # -(argc + recv) + result
        elif op is op_invs:
            after = depth - ins.arg[2] + 1
        elif op is op_al:
            after = depth - ins.arg + 1
        else:
            pops, pushes = effect[op]
            after = depth - pops + pushes
        if op is op_jump:
            push((ins.arg, after))
        elif op is op_jt or op is op_jf:
            push((ins.arg, after))
            push((i + 1, after))
        elif op is not op_ret and op is not op_rv and op is not op_throw:
            push((i + 1, after))
    return depths


def _call_helper(asm, helper_name, pops, imm=None, keep_result=True):
    """Spill ``pops`` operands, call ``helper_name(*operands, imm?)``."""
    for k in range(pops - 1, -1, -1):      # stack top -> highest scratch
        asm.emit("STORE_FAST", asm._scratch + k)
    asm.emit_global(helper_name)
    for k in range(pops):
        asm.emit("LOAD_FAST", asm._scratch + k)
    argc = pops
    if imm is not None:
        asm.emit_const(imm[0])
        argc += 1
    asm.emit("PRECALL", argc)
    asm.emit("CALL", argc)
    if not keep_result:
        asm.emit("POP_TOP")


def translate_method(method):
    """Lower one static guest method to an unassembled host program.

    Returns ``(assembler, varnames, stacksize)`` ready for
    :meth:`~repro.baseline.pyasm.PyAssembler.assemble`.
    """
    code = method.code
    num_locals = method.num_locals
    varnames = ["l%d" % i for i in range(num_locals)]
    scratch_base = len(varnames)
    varnames.extend(SCRATCH)
    depths = stack_depths(code)

    asm = PyAssembler()
    asm._scratch = scratch_base

    # -- prologue: resume, count the invocation, null the non-params --------
    asm.emit("RESUME", 0)
    asm.emit_global("_enter")
    asm.emit("PRECALL", 0)
    asm.emit("CALL", 0)
    asm.emit("POP_TOP")
    for slot in range(method.num_params, num_locals):
        asm.emit_const(None)
        asm.emit("STORE_FAST", slot)

    # Hot-loop plumbing: spec-op sequences contain no jumps and no
    # emission-order-dependent state beyond pool interning, so each
    # (opcode, immediate) pair renders once and replays by list-extend.
    instrs = asm.instrs
    extend = instrs.extend
    mark = asm.mark
    emit = asm.emit
    emit_const = asm.emit_const
    specs = OPSPECS
    seq_cache = {}

    for i, ins in enumerate(code):
        mark(i)
        op = ins.op
        spec = specs.get(op)
        if spec is not None:
            key = (op, ins.arg) if spec.imm else op
            seq = seq_cache.get(key)
            if seq is None:
                start = len(instrs)
                _call_helper(asm, spec.helper.__name__, spec.pops,
                             imm=(ins.arg,) if spec.imm else None,
                             keep_result=spec.pushes > 0)
                seq_cache[key] = tuple(instrs[start:])
            else:
                extend(seq)
        elif op is Op.CONST:
            emit_const(ins.arg)
        elif op is Op.LOAD:
            emit("LOAD_FAST", ins.arg)
        elif op is Op.STORE:
            emit("STORE_FAST", ins.arg)
        elif op is Op.POP:
            emit("POP_TOP")
        elif op is Op.DUP:
            emit("COPY", 1)
        elif op is Op.SWAP:
            emit("SWAP", 2)
        elif op is Op.ARRAY_LIT:
            emit("BUILD_LIST", ins.arg)
        elif op is Op.JUMP:
            backward = ins.arg <= i
            if backward and depths[i] == 0:
                # Counted loop back-edge: profile it, and offer the
                # tier controller an on-stack replacement exit.
                asm.emit_global("_be")
                emit_const(ins.arg)
                emit("PRECALL", 1)
                emit("CALL", 1)
                asm.jump(("cont", i), cond=False)
                asm.emit_global("_osr")
                emit_const(ins.arg)
                for slot in range(num_locals):
                    emit("LOAD_FAST", slot)
                emit("BUILD_LIST", num_locals)
                emit("PRECALL", 2)
                emit("CALL", 2)
                emit("RETURN_VALUE")
                mark(("cont", i))
            asm.jump(ins.arg, backward=backward)
        elif op is Op.JIF_TRUE:
            asm.jump(ins.arg, cond=True, backward=ins.arg <= i)
        elif op is Op.JIF_FALSE:
            asm.jump(ins.arg, cond=False, backward=ins.arg <= i)
        elif op is Op.RET:
            emit_const(None)
            emit("RETURN_VALUE")
        elif op is Op.RET_VAL:
            emit("RETURN_VALUE")
        elif op is Op.NEW:
            asm.emit_global("_new")
            emit_const(ins.arg)
            emit("PRECALL", 1)
            emit("CALL", 1)
        elif op is Op.INVOKE:
            name, argc = ins.arg
            emit("BUILD_LIST", argc)           # recv args -> recv [args]
            emit("STORE_FAST", scratch_base + 1)
            emit("STORE_FAST", scratch_base)
            asm.emit_global("_callv")
            emit("LOAD_FAST", scratch_base)
            emit_const(name)
            emit("LOAD_FAST", scratch_base + 1)
            emit("PRECALL", 3)
            emit("CALL", 3)
        elif op is Op.INVOKE_STATIC:
            cls_name, name, argc = ins.arg
            emit("BUILD_LIST", argc)
            emit("STORE_FAST", scratch_base)
            asm.emit_global("_calls")
            emit_const(cls_name)
            emit_const(name)
            emit("LOAD_FAST", scratch_base)
            emit("PRECALL", 3)
            emit("CALL", 3)
        else:  # pragma: no cover - the Op enum is fully covered above
            raise AssertionError("no baseline template for %r" % (op,))

    # Fall-through epilogue (also the target of jumps to len(code)).
    asm.mark(len(code))
    asm.emit_const(None)
    asm.emit("RETURN_VALUE")

    max_depth = max((d for d in depths if d is not None), default=0)
    # Slack: NULL + callable + reloaded operands + immediate on top of
    # the deepest guest stack, or the OSR exit's locals list.
    stacksize = max_depth + max(6, num_locals + 4)
    return asm, varnames, stacksize
