"""Block fusion: collapse single-predecessor chains in the staged CFG.

Historically this lived in the Python code generator; it is an IR→IR
transformation like DCE, so it now sits in the analysis package and runs
as a :class:`~repro.pipeline.passes.PassManager` pass (every backend —
Python, JS, SQL — consumes already-fused IR instead of re-cleaning the
blocks itself).
"""

from __future__ import annotations

from repro.lms.ir import Effect, Jump, Stmt
from repro.lms.rep import Sym


def fuse_blocks(blocks, entry_id):
    """Merge single-predecessor blocks into their predecessor.

    Chains of continuation blocks (produced by splitting at join points
    that turned out to have one live edge, and by loop unrolling) collapse
    into straight-line code, removing a jump per link. A single
    pass over the blocks: fusing never changes any surviving block's
    in-degree (the absorbed block's outgoing edges move wholesale), and
    each fusion site keeps absorbing its whole chain before moving on, so
    the work is linear in the total statement count.
    """
    in_edges = {bid: 0 for bid in blocks}
    for block in blocks.values():
        for succ in block.terminator.successors():
            # Tolerate dangling edges: collect-mode analysis keeps going
            # after the verifier has already reported them.
            in_edges[succ] = in_edges.get(succ, 0) + 1
    for bid in list(blocks):
        block = blocks.get(bid)
        if block is None:
            continue            # already absorbed into a predecessor
        while True:
            term = block.terminator
            if not isinstance(term, Jump):
                break
            target = term.target
            if target == entry_id or target == block.block_id \
                    or target not in blocks or in_edges.get(target) != 1:
                break
            tblock = blocks[target]
            for name, rep in term.phi_assigns:
                block.stmts.append(Stmt(Sym(name), "id", (rep,),
                                        Effect.WRITE))
            block.stmts.extend(tblock.stmts)
            block.terminator = tblock.terminator
            del blocks[target]
    return blocks
