"""A generic worklist dataflow solver over the staged-IR CFG.

An analysis subclasses :class:`ForwardAnalysis` or
:class:`BackwardAnalysis` and provides lattice operations (``bottom``,
``join``) plus a per-block ``transfer`` function. :func:`solve` iterates a
worklist to fixpoint and returns the value at every block boundary.

Forward analyses may additionally override ``edge_value`` to specialize
the value flowing along one edge — this is how block-parameter phis are
modelled: the predecessor's terminator assigns ``(param, rep)`` pairs, so
facts about ``rep`` in the predecessor become facts about ``param`` in the
successor (see :mod:`repro.analysis.taint`).

Values must be treated as immutable: ``transfer``/``join`` return new
values rather than mutating their inputs, so the solver can compare
old/new with ``==`` for the change test.

A forward analysis over an infinite-height lattice may also define
``widen(old, new)``, returning a value at least as large as both. The
solver calls it only at loop headers (blocks entered by a retreating
edge in reverse postorder), once a header has been visited
``WIDEN_DELAY`` times and its merged IN still moves. If any widening
fired, a descending phase of at most ``NARROW_SWEEPS`` reverse-postorder
sweeps recomputes IN from edges, without widening, to win back
precision. Analyses without ``widen`` (taint) iterate to a plain
fixpoint.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.cfg import predecessors, reverse_postorder

#: Visits of a loop header before ``widen`` replaces the plain join.
WIDEN_DELAY = 2

#: Upper bound on the descending (narrowing) sweeps after widening.
NARROW_SWEEPS = 2


class Solution(dict):
    """``{block_id: (in, out)}`` plus ``transfers``, the number of block
    transfer-function calls the solver made."""

    def __init__(self, items, transfers):
        super().__init__(items)
        self.transfers = transfers


class ForwardAnalysis:
    """Facts flow entry → exit; ``transfer`` maps a block's IN to its OUT."""

    direction = "forward"

    def boundary(self, blocks, entry_id):
        """Initial IN value of the entry block."""
        return self.bottom()

    def bottom(self):
        """The 'no information yet' lattice value."""
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, block, value):
        raise NotImplementedError

    def edge_value(self, block, succ_id, out_value):
        """The value flowing along the edge ``block → succ_id``; defaults
        to the block's OUT value."""
        return out_value


class BackwardAnalysis:
    """Facts flow exit → entry; ``transfer`` maps a block's OUT to its IN."""

    direction = "backward"

    def boundary(self, blocks, entry_id):
        """Initial OUT value of exit blocks."""
        return self.bottom()

    def bottom(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, block, value):
        raise NotImplementedError


def solve(blocks, entry_id, analysis):
    """Run ``analysis`` to fixpoint; returns a :class:`Solution`
    ``{block_id: (in, out)}``.

    Unreachable blocks keep their ``bottom`` boundary value. The worklist
    is seeded in reverse postorder (forward) or postorder (backward) so
    acyclic regions converge in one sweep; loops iterate until stable.
    """
    if analysis.direction == "forward":
        return _solve_forward(blocks, entry_id, analysis)
    return _solve_backward(blocks, entry_id, analysis)


def _loop_headers(order, preds):
    """Blocks entered by a retreating edge in reverse postorder (every
    cycle of the CFG passes through one, irreducible ones included)."""
    index = {bid: i for i, bid in enumerate(order)}
    return {bid for bid in order
            if any(index.get(p, -1) >= index[bid] for p in preds[bid])}


def _solve_forward(blocks, entry_id, analysis):
    preds = predecessors(blocks)
    order = reverse_postorder(blocks, entry_id)
    in_val = {bid: analysis.bottom() for bid in blocks}
    out_val = {}
    if entry_id in blocks:
        in_val[entry_id] = analysis.boundary(blocks, entry_id)
    for bid in blocks:
        out_val[bid] = analysis.transfer(blocks[bid], in_val[bid])
    transfers = len(blocks)

    def merge(bid):
        merged = analysis.boundary(blocks, entry_id) if bid == entry_id \
            else analysis.bottom()
        for pred in preds[bid]:
            edge = analysis.edge_value(blocks[pred], bid, out_val[pred])
            merged = analysis.join(merged, edge)
        return merged

    def update(bid, merged):
        """Store a changed IN and transfer it; True when OUT moved."""
        nonlocal transfers
        in_val[bid] = merged
        new_out = analysis.transfer(blocks[bid], merged)
        transfers += 1
        if new_out == out_val[bid]:
            return False
        out_val[bid] = new_out
        return True

    # ``out_val[bid] == transfer(in_val[bid])`` holds throughout, so a
    # block whose IN did not change is never transferred again. Loop
    # headers are found only once some block is still moving after
    # ``WIDEN_DELAY`` visits; most units converge before that.
    widen = getattr(analysis, "widen", None)
    headers = None
    widened = False
    visits = dict.fromkeys(blocks, 0)
    work = deque(order)
    queued = set(order)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        merged = merge(bid)
        visits[bid] += 1
        if widen is not None and visits[bid] > WIDEN_DELAY \
                and merged != in_val[bid]:
            if headers is None:
                headers = _loop_headers(order, preds)
            if bid in headers:
                merged = widen(in_val[bid], merged)
                widened = True
        if merged != in_val[bid] and update(bid, merged):
            for succ in blocks[bid].terminator.successors():
                if succ in blocks and succ not in queued:
                    work.append(succ)
                    queued.add(succ)

    # Descending phase: widening may have overshot, so recompute IN
    # from its edges (no widening) to win back bounds the loop body
    # implies. Only headers and blocks below a changed OUT can move.
    # Each sweep keeps the solution a post-fixpoint, so stopping after
    # ``NARROW_SWEEPS`` is sound.
    dirty = set(headers) if widened else set()
    for __ in range(NARROW_SWEEPS):
        for bid in order:
            if bid not in dirty:
                continue
            dirty.discard(bid)
            merged = merge(bid)
            if merged != in_val[bid] and update(bid, merged):
                dirty.update(blocks[bid].terminator.successors())
        if not dirty:
            break
    return Solution(((bid, (in_val[bid], out_val[bid])) for bid in blocks),
                    transfers)


def _solve_backward(blocks, entry_id, analysis):
    order = reverse_postorder(blocks, entry_id)
    # Postorder seeds backward problems efficiently; include any blocks
    # unreachable from the entry at the end so they still get values.
    seed = list(reversed(order)) + [b for b in blocks if b not in set(order)]
    out_val = {bid: analysis.boundary(blocks, entry_id) for bid in blocks}
    in_val = {}
    for bid in blocks:
        in_val[bid] = analysis.transfer(blocks[bid], out_val[bid])
    transfers = len(blocks)

    preds = predecessors(blocks)
    work = deque(seed)
    queued = set(seed)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        block = blocks[bid]
        merged = analysis.boundary(blocks, entry_id)
        for succ in block.terminator.successors():
            if succ in blocks:
                merged = analysis.join(merged, in_val[succ])
        out_val[bid] = merged
        new_in = analysis.transfer(block, merged)
        transfers += 1
        if new_in != in_val[bid]:
            in_val[bid] = new_in
            for pred in preds[bid]:
                if pred not in queued:
                    work.append(pred)
                    queued.add(pred)
    return Solution(((bid, (in_val[bid], out_val[bid])) for bid in blocks),
                    transfers)
