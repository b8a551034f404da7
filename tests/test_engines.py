"""One opcode table, every engine.

The interpreter, the template baseline and the staged interpreter (tiers
1 and 2, and Tier T's traces, staged along a recorded path) all execute
the opcode semantics of :data:`repro.interp.handlers.OPSPECS` /
``DISPATCH``. Each test here runs one tiny guest loop per opcode through
every engine and checks they agree; the trace tier must also compile the
loop without an abort, so an opcode that trace staging cannot follow
fails here."""

from __future__ import annotations

import dataclasses

import pytest

from repro import CompileOptions, Lancet
from repro.baseline import baseline_supported
from repro.bytecode.assembler import assemble
from repro.bytecode.opcodes import Op
from repro.errors import (GuestArithmeticError, GuestError, GuestNullError,
                          GuestTypeError)
from repro.interp.handlers import OPSPECS
from repro.lms.ir import Effect
from repro.pipeline import TIER1, tier_options
from repro.runtime.natives import NATIVES

#: Loop iterations per call, and the back-edge count that starts a
#: recording (so iteration ``TRACE_AT`` is the recorded one).
N = 12
TRACE_AT = 4

PRELUDE = """
class P {
  var x;
  def init(x) { this.x = x; }
  def get() { return this.x; }
}
def twice(x) { return x + x; }
def bump(p) { p.x = p.x + 1; }
"""

LOOP = """
def f(n) {
  var s = 0; var p = new P(1); var a = [1, 2, 3];
  var i = 0;
  while (i < n) { %s i = i + 1; }
  return s;
}
"""

#: Loop body exercising each opcode the frontend emits.
BODIES = {
    Op.CONST: "s = s + 3;",
    Op.LOAD: "s = s + i;",
    Op.STORE: "var t = i; s = t;",
    Op.POP: "twice(i);",
    Op.DUP: "if (i > 2 && i < 9) { s = s + 1; }",
    Op.ADD: "s = s + i;",
    Op.SUB: "s = s - i;",
    Op.MUL: "s = s + i * 3;",
    Op.DIV: "s = s + i / 2;",
    Op.MOD: "s = s + i % 5;",
    Op.NEG: "s = s + (-i);",
    Op.EQ: "if (i == 3) { s = s + 1; }",
    Op.NE: "if (i != 3) { s = s + 1; }",
    Op.LT: "if (i < 5) { s = s + 1; }",
    Op.LE: "if (i <= 5) { s = s + 1; }",
    Op.GT: "if (i > 5) { s = s + 1; }",
    Op.GE: "if (i >= 5) { s = s + 1; }",
    Op.NOT: "var c = !(i < 6); if (c) { s = s + 1; }",
    Op.JUMP: "s = s + 1;",
    Op.JIF_TRUE: "if (i < 2 || i > 6) { s = s + 1; }",
    Op.JIF_FALSE: "if (i < 6) { s = s + 1; }",
    Op.RET: "bump(p); s = s + p.x;",
    Op.RET_VAL: "s = s + twice(i);",
    Op.NEW: "var q = new P(i); s = s + q.x;",
    Op.GETFIELD: "s = s + p.x;",
    Op.PUTFIELD: "p.x = i; s = s + p.x;",
    Op.INSTANCEOF: "if (p is P) { s = s + 1; }",
    Op.INVOKE: "s = s + p.get();",
    Op.INVOKE_STATIC: "s = s + twice(i);",
    Op.ALOAD: "s = s + a[i % 3];",
    Op.ASTORE: "a[i % 3] = i; s = s + a[1];",
    Op.ALEN: "s = s + len(a);",
    Op.ARRAY_LIT: "var b = [i, s]; s = s + b[0];",
    Op.THROW: "if (i > n) { throw i; } s = s + 1;",
}

#: Opcodes the frontend never emits, written in assembly instead; the
#: loop keeps ``n`` in slot 0, ``s`` in slot 1 and ``i`` in slot 2.
ASM_BODIES = {
    Op.SWAP: ["load 1", "load 2", "swap", "sub", "store 1"],
    Op.NEW_ARRAY: ["load 2", "new_array", "alen", "load 1", "add",
                   "store 1"],
}


def _asm_program(body):
    lines = ["class Main", "static method f/1",
             "const 0", "store 1", "const 0", "store 2",
             "head:", "load 2", "load 0", "lt", "jif_false done",
             *body,
             "load 2", "const 1", "add", "store 2", "jump head",
             "done:", "load 1", "ret_val", "end", "end"]
    return "\n".join(lines)


def _load(jit, op):
    if op in ASM_BODIES:
        jit.vm.load_classes(assemble(_asm_program(ASM_BODIES[op])))
    else:
        jit.load(PRELUDE + LOOP % BODIES[op])
    return jit


def _outcome(jit, call):
    """(guest error type, result, output) of one call."""
    err = result = None
    try:
        result = call()
    except GuestError as exc:
        err = type(exc)
    out = jit.vm.output()
    jit.vm.clear_output()
    return err, result, out


def _trace_lancet(**knobs):
    return Lancet(options=CompileOptions(trace_tier=True, verify_ir=True,
                                         trace_threshold=TRACE_AT,
                                         bridge_threshold=3, **knobs))


def _opcodes(jit):
    return {ins.op for cls in jit.vm.linker.classes.values()
            for method in cls.classfile.methods.values()
            for ins in method.code}


def test_every_opcode_is_covered():
    assert set(BODIES) | set(ASM_BODIES) == set(Op)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_opcode_agrees_on_every_engine(op):
    jit = _load(Lancet(), op)
    assert op in _opcodes(jit)
    expected = _outcome(jit, lambda: jit.vm.call("Main", "f", [N]))
    assert expected[0] is None

    tier1 = tier_options(jit.options, TIER1)
    staged_tier1 = tier_options(dataclasses.replace(jit.options,
                                                    baseline=False), TIER1)
    engines = {"staged tier 1": staged_tier1, "tier 2": jit.options}
    if baseline_supported():
        engines["baseline"] = tier1
    for engine, options in engines.items():
        compiled = jit.compile_function("Main", "f", options=options)
        if engine == "baseline":
            assert getattr(compiled, "kind", None) == "baseline"
        assert _outcome(jit, lambda: compiled(N)) == expected, engine

    traced = _load(_trace_lancet(), op)
    for _ in range(3):
        assert _outcome(traced, lambda: traced.vm.call("Main", "f", [N])) \
            == expected, "trace tier"
    stats = traced.stats()["traces"]
    assert stats["compiles"] >= 1
    assert not stats["aborts"]


# -- the recorder's guest-error rule ------------------------------------------

#: Loops whose recorded iteration (``i == TRACE_AT``) raises a guest error.
ERROR_LOOPS = {
    "getfield on null": (PRELUDE + LOOP % (
        "if (i == %d) { p = null; } s = s + p.x;" % TRACE_AT),
        GuestNullError),
    "putfield on an int": (PRELUDE + LOOP % (
        "if (i == %d) { p = 7; } p.x = i;" % TRACE_AT), GuestTypeError),
    "constant 1 / 0": (PRELUDE + LOOP % (
        "if (i == %d) { s = s + 1 / 0; }" % TRACE_AT),
        GuestArithmeticError),
    # new_array(TRACE_AT - 1 - i) is -1 on the recorded iteration.
    "new_array(-1)": (["const %d" % (TRACE_AT - 1), "load 2", "sub",
                       "new_array", "pop"], GuestTypeError),
}


@pytest.mark.parametrize("case", sorted(ERROR_LOOPS))
def test_recording_aborts_on_guest_error(case):
    program, error = ERROR_LOOPS[case]

    def load(jit):
        if isinstance(program, list):
            jit.vm.load_classes(assemble(_asm_program(program)))
        else:
            jit.load(program)
        return jit

    oracle = load(Lancet())
    assert _outcome(oracle, lambda: oracle.vm.call("Main", "f", [N]))[0] \
        is error
    traced = load(_trace_lancet())
    traced.telemetry.enable_trace()
    assert _outcome(traced, lambda: traced.vm.call("Main", "f", [N]))[0] \
        is error
    stats = traced.stats()["traces"]
    assert stats["recordings"] == 1
    assert stats["aborts"] == 1
    assert not stats["compiles"]
    [abort] = traced.telemetry.events("trace.abort")
    assert abort.data["reason"].startswith("guest error")


# -- one native-effect rule ---------------------------------------------------


def _expected_effect(nat):
    if nat.calls_guest:
        return Effect.CALL
    if nat.allocates:
        return Effect.ALLOC
    if nat.pure:
        return Effect.PURE
    return Effect.IO


def test_native_effects_follow_one_rule():
    assert NATIVES
    for nat in NATIVES.values():
        assert nat.effect is _expected_effect(nat), nat


NATIVE_LOOP = """
def f(n) {
  var s = 0; var i = 0;
  while (i < n) {
    var parts = split("a,b", ",");
    s = s + indexOf("abc", str(i % 3)) + len(parts);
    println(s);
    i = i + 1;
  }
  return s;
}
"""


def _natives(ir):
    return {stmt.args[0].name: (stmt.args[0], stmt.effect)
            for block in ir.blocks.values() for stmt in block.stmts
            if stmt.op == "native"}


def test_engines_emit_natives_with_their_effect():
    jit = Lancet()
    jit.load(NATIVE_LOOP)
    staged = _natives(jit.compile_function("Main", "f").ir)
    traced = _trace_lancet()
    traced.load(NATIVE_LOOP)
    for _ in range(2):
        traced.vm.call("Main", "f", [N])
    [trace] = traced.tiers.traces.traces.values()
    recorded = _natives(trace.result)
    expected = {"split": Effect.ALLOC, "indexOf": Effect.PURE,
                "str": Effect.PURE, "println": Effect.IO}
    for emitted in (staged, recorded):
        assert {name: effect for name, (__, effect) in emitted.items()} \
            == expected
        assert all(effect is nat.effect for nat, effect in emitted.values())


def test_table_covers_value_opcodes():
    """Every value opcode's IR op is its lowercased name, and arity comes
    from the one stack-effect table."""
    for op, spec in OPSPECS.items():
        assert spec.ir == op.name.lower()
    assert OPSPECS[Op.PUTFIELD].ir_args(("o", "v"), "x") == ("o", "x", "v")
    assert OPSPECS[Op.ADD].ir_args(("a", "b"), None) == ("a", "b")
