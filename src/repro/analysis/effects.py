"""Effect and purity inference for IR statements and called units.

Three layers of facts, consumed by the optimization passes in
:mod:`repro.pipeline` (GVN, LICM, scalar replacement):

* **per-op**: which statements are pure (value depends only on operands),
  which are *total* (can never raise a guest error), and which read or
  write the guest heap. Purity makes a statement CSE-able; totality makes
  it hoistable to places it was not guaranteed to execute.
* **aliasing**: a cheap must-not-alias test between heap base values.
  Distinct statics are distinct objects (``StaticRep`` is identity-keyed),
  and a value defined by an allocation statement is *fresh* — it cannot
  alias any pre-existing static nor the result of a different allocation
  site. Everything else conservatively may-alias.
* **per-callee**: an interprocedural effect summary of a guest method,
  computed by a linear walk over its bytecode and memoized on the method
  object (the same identity the unit cache keys on). A residual
  ``invoke_method`` whose callee summary proves it side-effect-free can
  participate in value numbering like a pure op.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.interp.handlers import OPSPECS
from repro.lms.ir import Effect
from repro.lms.rep import ConstRep, StaticRep, Sym

#: Ops whose statement can be deleted/merged when the value is available
#: elsewhere (Effect.PURE already says "CSE-able"; this names the identity
#: ops that move values without computing).
COPY_OPS = ("id", "taint", "untaint")

#: Ops that allocate guest-visible heap data.
ALLOC_OPS = ("new", "new_array", "array_lit")

#: Heap reads keyed as (op, base, key): invalidated by aliasing writes.
LOAD_OPS = ("getfield", "aload", "alen")

#: Heap writes as (op, base, key, value).
STORE_OPS = ("putfield", "putfield_stablecheck", "astore")

#: Ops that are total for any operands (no guest error possible).
_ALWAYS_TOTAL = ("eq", "ne", "not", "truthy", "instanceof", "class_is",
                 "to_str", "id", "taint", "untaint")

#: Infix-foldable ops that are total once staging proved numeric operands
#: (``flags['num']``); div/mod stay out — a zero divisor raises.
_NUM_TOTAL = ("add", "sub", "mul", "neg", "lt", "le", "gt", "ge")


def is_total(stmt):
    """True when the statement can never raise a guest error, so it may
    execute on paths where the original program would not have reached it
    (the LICM hoisting criterion)."""
    op = stmt.op
    if op in _ALWAYS_TOTAL:
        return True
    if op in _NUM_TOTAL and stmt.flags.get("num"):
        return True
    if op == "concat":
        # Emitted only once staging proved both operands are strings.
        return True
    if op == "alen" and stmt.flags.get("arrfast"):
        return True
    if op == "getfield" and stmt.flags.get("objfast"):
        # Proven Obj whose class declares the field; reads default to null.
        return True
    if op in ALLOC_OPS:
        return op != "new_array" or isinstance(stmt.args[0], ConstRep)
    if op == "native":
        nat = stmt.args[0]
        return bool(getattr(nat, "pure", False)) \
            and not getattr(nat, "allocates", False)
    return False


def is_pure(stmt):
    """True when the statement's value depends only on its operands (no
    heap reads), making it a value-numbering candidate."""
    return stmt.effect is Effect.PURE and stmt.op != "make_cont"


def fresh_syms(blocks):
    """Names defined directly by an allocation statement: each holds a
    fresh object distinct from every static and from every other
    allocation site's result. Copies (``id``/phi) are deliberately not
    tracked — a copied name falls back to may-alias."""
    fresh = set()
    for block in blocks.values():
        for stmt in block.stmts:
            if stmt.op in ALLOC_OPS or (
                    stmt.op == "native"
                    and getattr(stmt.args[0], "allocates", False)):
                fresh.add(stmt.sym.name)
    return fresh


def may_alias(a, b, fresh=frozenset()):
    """May the base values ``a`` and ``b`` refer to the same heap object?
    Sound in the False direction only."""
    if isinstance(a, ConstRep) or isinstance(b, ConstRep):
        # Constants are primitives/null: only equal constants "alias".
        return a == b
    if isinstance(a, StaticRep) and isinstance(b, StaticRep):
        return a.index == b.index
    if isinstance(a, StaticRep):
        a, b = b, a
    if isinstance(b, StaticRep):
        # Fresh allocations cannot be pre-existing statics.
        return not (isinstance(a, Sym) and a.name in fresh)
    if isinstance(a, Sym) and isinstance(b, Sym):
        if a.name == b.name:
            return True
        # Two distinct allocation sites always produce distinct objects.
        return not (a.name in fresh and b.name in fresh)
    return True


def _store_key(stmt):
    """(base, key) of a store; key is the immediate field name or the
    index rep."""
    if stmt.op in ("putfield", "putfield_stablecheck"):
        return stmt.args[0], stmt.args[1]
    return stmt.args[0], stmt.args[1]       # astore: (arr, index, value)


def load_key(stmt):
    """Hashable cache key of a heap read (None when not a load)."""
    if stmt.op == "getfield":
        return ("getfield", stmt.args[0], stmt.args[1])
    if stmt.op == "aload":
        return ("aload", stmt.args[0], stmt.args[1])
    if stmt.op == "alen":
        return ("alen", stmt.args[0])
    return None


def clobbers(stmt, key, fresh=frozenset()):
    """Does executing ``stmt`` invalidate a cached heap read ``key`` (as
    returned by :func:`load_key`)?"""
    effect = stmt.effect
    if stmt.op == "delite":
        # A Delite launch stages as Effect.ALLOC (it produces a fresh
        # output array), but its *kernel* may still write captured
        # state. The kernel effect summary (repro.analysis.parsafe)
        # answers precisely: a proven write-free kernel cannot clobber
        # any pre-existing heap read; anything unproven clobbers
        # everything.
        from repro.analysis.parsafe import delite_write_free
        return not delite_write_free(stmt)
    if effect in (Effect.PURE, Effect.ALLOC, Effect.GUARD):
        return False
    if stmt.op in COPY_OPS:
        # Fusion materializes phi moves as ``id`` with Effect.WRITE; pure
        # data movement never touches the heap.
        return False
    if stmt.op in STORE_OPS:
        if key[0] == "alen":
            # MiniJVM arrays are fixed-length; no op resizes them.
            return False
        base, written = _store_key(stmt)
        if stmt.op == "astore":
            if key[0] != "aload":
                return False
            if not may_alias(base, key[1], fresh):
                return False
            # Even aliasing bases cannot conflict on distinct constant
            # indices.
            idx = key[2]
            if isinstance(written, ConstRep) and isinstance(idx, ConstRep) \
                    and written.value != idx.value:
                return False
            return True
        if key[0] != "getfield" or written != key[2]:
            return False
        return may_alias(base, key[1], fresh)
    # Residual calls, natives, IO: assume arbitrary writes.
    return True


# -- interprocedural summaries ---------------------------------------------------

class EffectSummary:
    """What a guest method may do, derived from its bytecode."""

    __slots__ = ("reads", "writes", "allocates", "calls", "may_throw")

    def __init__(self, reads=False, writes=False, allocates=False,
                 calls=False, may_throw=False):
        self.reads = reads
        self.writes = writes
        self.allocates = allocates
        self.calls = calls
        self.may_throw = may_throw

    @property
    def is_pure(self):
        """Value depends only on arguments: CSE-able anywhere dominated by
        an equivalent call."""
        return not (self.reads or self.writes or self.allocates
                    or self.calls)

    @property
    def is_read_only(self):
        """No observable effect, but the value may depend on the heap:
        CSE-able only while no intervening write/call can run."""
        return not (self.writes or self.allocates or self.calls)

    def __repr__(self):
        tags = [t for t, on in (("reads", self.reads), ("writes", self.writes),
                                ("allocates", self.allocates),
                                ("calls", self.calls),
                                ("throws", self.may_throw)) if on]
        return "EffectSummary(%s)" % ", ".join(tags or ["pure"])


def _table_ops(effect):
    return frozenset(op for op, spec in OPSPECS.items()
                     if spec.effect is effect)


# Bytecode effects come from the opcode table. ALEN is PURE there: arrays
# are fixed-length, and no op resizes one (see ``clobbers``).
_WRITE_OPS = _table_ops(Effect.WRITE)
_READ_OPS = _table_ops(Effect.READ)
_ALLOC_BC = _table_ops(Effect.ALLOC) | {Op.NEW, Op.ARRAY_LIT}
_CALL_BC = (Op.INVOKE, Op.INVOKE_STATIC)
_THROW_BC = (Op.THROW, Op.DIV, Op.MOD, Op.ADD, Op.SUB, Op.MUL, Op.NEG,
             Op.LT, Op.LE, Op.GT, Op.GE, Op.ALEN)


def method_effect_summary(method):
    """Effect summary of one guest method, by a linear walk over its
    bytecode (no recursion into callees: any INVOKE makes the summary
    opaque). Memoized on the method object, the same identity the unit
    cache keys compilations on."""
    cached = getattr(method, "_effect_summary", None)
    if cached is not None:
        return cached
    summary = EffectSummary()
    for ins in method.code:
        op = ins.op
        if op in _WRITE_OPS:
            summary.writes = True
        elif op in _READ_OPS:
            summary.reads = True
            summary.may_throw = True         # null base / bad index
        elif op in _ALLOC_BC:
            summary.allocates = True
        elif op in _CALL_BC:
            summary.calls = True
            summary.may_throw = True
        elif op in _THROW_BC:
            summary.may_throw = True
    method._effect_summary = summary
    return summary


def invoke_summary(stmt):
    """Effect summary of a residual call statement, when its callee is
    statically known (``invoke_method`` carries the method object as a
    static); None for virtual dispatch and unknown callees."""
    if stmt.op != "invoke_method":
        return None
    target = stmt.args[0]
    if not isinstance(target, StaticRep):
        return None
    method = target.obj
    if method is None or not hasattr(method, "code"):
        return None
    return method_effect_summary(method)
