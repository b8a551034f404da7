"""The staging context: symbol supply, IR emission, abstract facts.

One :class:`StagingContext` lives for the duration of a compilation pass.
It owns the CFG under construction, the ``Rep -> AbsVal`` mapping queried
through ``evalA`` (paper 2.2), the statics table (pre-existing objects the
generated code references), taint facts (paper 3.3), and deoptimization
metadata.
"""

from __future__ import annotations

from repro.absint.absval import UNKNOWN, Const, Static, abs_of_value
from repro.lms.ir import Block, Effect, Stmt
from repro.lms.rep import ConstRep, StaticRep, Sym

# Pure ops eligible for common-subexpression elimination within a block.
_CSE_OPS = frozenset({
    "add", "sub", "mul", "div", "mod", "neg", "eq", "ne", "lt", "le",
    "gt", "ge", "not", "alen", "instanceof", "to_str",
})


class StagingContext:
    """Mutable state of one compilation pass."""

    def __init__(self, statics=None, prefix=""):
        self._sym_counter = 0
        # Prepended to every sym name, so IR staged by separate passes
        # (a trace and the bridges stitched into it) never collides.
        self.prefix = prefix
        self.blocks = {}
        self.current_block = None
        self.abs = {}             # sym name -> AbsVal
        self.taint = {}           # sym name -> bool
        # Statics persist across passes so StaticRep indices stay stable.
        self.statics = statics if statics is not None else _Statics()
        self.deopt_metas = []
        self.warnings = []
        self._cse = {}            # (block id, op, args) -> sym

    # -- symbols ------------------------------------------------------------------

    def fresh_sym(self, prefix="s"):
        self._sym_counter += 1
        return Sym("%s%s%d" % (self.prefix, prefix, self._sym_counter))

    # -- blocks --------------------------------------------------------------------

    def new_block(self, block_id, params=()):
        block = Block(block_id, params)
        self.blocks[block_id] = block
        return block

    def set_current(self, block):
        self.current_block = block

    # -- lifting ---------------------------------------------------------------------

    def lift(self, value):
        """Lift a concrete value into a Rep (``liftConst`` in the paper)."""
        from repro.absint.absval import PRIMITIVES
        if isinstance(value, PRIMITIVES):
            return ConstRep(value)
        return self.lift_static(value)

    def lift_static(self, obj):
        index = self.statics.index_of(obj)
        return StaticRep(index, obj)

    # -- abstract facts ------------------------------------------------------------------

    def eval_abs(self, rep):
        """``evalA``: the abstract value attached to a staged value."""
        if isinstance(rep, ConstRep):
            return Const(rep.value)
        if isinstance(rep, StaticRep):
            return Static(rep.obj)
        return self.abs.get(rep.name, UNKNOWN)

    def is_tainted(self, rep):
        if isinstance(rep, Sym):
            return self.taint.get(rep.name, False)
        return False

    def set_taint(self, rep, tainted):
        if isinstance(rep, Sym):
            self.taint[rep.name] = tainted

    # -- emission -------------------------------------------------------------------------

    def emit(self, op, args, effect=Effect.PURE, flags=None, absval=None,
             taint=None):
        """Append ``sym = op(args)`` to the current block; returns the sym.

        Pure ops are CSE'd within the block. Taint defaults to the join of
        the Rep arguments' taints.
        """
        block = self.current_block
        if effect is Effect.PURE and op in _CSE_OPS:
            key = (block.block_id, op, tuple(args))
            hit = self._cse.get(key)
            if hit is not None:
                return hit
        sym = self.fresh_sym()
        block.stmts.append(Stmt(sym, op, args, effect, flags))
        if absval is not None:
            self.abs[sym.name] = absval
        if taint is None:
            taint = any(self.is_tainted(a) for a in args
                        if isinstance(a, Sym))
        self.taint[sym.name] = taint
        if effect is Effect.PURE and op in _CSE_OPS:
            self._cse[(block.block_id, op, tuple(args))] = sym
        return sym

    def warn(self, message):
        self.warnings.append(message)

    # -- deopt metadata ----------------------------------------------------------------------

    def add_deopt_meta(self, meta):
        self.deopt_metas.append(meta)
        return len(self.deopt_metas) - 1


class _Statics:
    """Identity-keyed table of pre-existing objects referenced by compiled
    code (the ``K`` array in generated source)."""

    def __init__(self):
        self.objects = []
        self._index = {}

    def index_of(self, obj):
        key = id(obj)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.objects)
            self.objects.append(obj)
            self._index[key] = idx
        return idx

    def __len__(self):
        return len(self.objects)
