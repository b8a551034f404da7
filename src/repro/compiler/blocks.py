"""Static control-flow facts about bytecode methods.

The staged interpreter absorbs straight-line control flow into the block it
is generating and only splits at *join points* — bytecode indices with more
than one static predecessor (if/else joins, loop headers). This keeps the
generated CFG small and makes loop headers explicit merge candidates.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op

def successors_of(code, i):
    ins = code[i]
    if ins.op is Op.JUMP:
        return (ins.arg,)
    if ins.op in (Op.JIF_TRUE, Op.JIF_FALSE):
        return (i + 1, ins.arg)
    if ins.op in (Op.RET, Op.RET_VAL, Op.THROW):
        return ()
    return (i + 1,)


def join_bcis(method):
    """The set of bcis with more than one static predecessor."""
    cached = getattr(method, "_join_bcis", None)
    if cached is not None:
        return cached
    preds = {}
    code = method.code
    for i in range(len(code)):
        for s in successors_of(code, i):
            if s < len(code):
                preds[s] = preds.get(s, 0) + 1
    joins = frozenset(bci for bci, n in preds.items() if n > 1)
    method._join_bcis = joins
    return joins

