"""Structure a post-pipeline CFG into nested ``if``/``while`` for codegen.

The Python and JavaScript renderers both walk the tree this module builds,
so a jump in generated code costs what the host charges for structured
control flow (a fall-through, ``break`` or ``continue``) instead of a turn
of a label-dispatch loop. It runs after the PassManager and reads the IR
without changing it.

A tree is a list (a sequence) of items:

* an ``int`` block id: that block's statements and, when it ends in
  ``Return``/``Deopt``/``OsrCompile``, that exit;
* :class:`Assign`: an edge's phi assigns, ``[(param, rep)]``;
* :class:`If`: a ``Branch``, with a sequence per arm;
* :class:`Loop`: ``while True`` around a loop header's body;
* :data:`BREAK` / :data:`CONTINUE`: leave or restart the innermost loop.

Placement follows Ramsey's dominator-tree scheme ("Beyond Relooper",
ICFP 2022). A *merge* node has two or more forward predecessors and is
placed right after the code of its immediate dominator; any other node is
inlined at the one jump that reaches it. A loop header becomes a
:class:`Loop` whose dominator-tree children outside its natural loop (the
exits) are placed after it. An edge then renders as nothing when its
target is what falls through next, as ``continue`` when it targets the
innermost loop's header, as ``break`` when it targets the block right
after the innermost loop, and as inline code for a one-predecessor target.

Whatever else (an irreducible region, an exit out of two loops, a jump
past a merge, or nesting beyond CPython's limits) makes :func:`structure`
report the unit unstructured; its renderer then falls back to label
dispatch. The builder keeps its own work stack, so a deep dominator tree
cannot raise ``RecursionError``.
"""

from __future__ import annotations

from repro.analysis.cfg import dominators, predecessors, reverse_postorder
from repro.lms.ir import Branch, Jump

#: Nested ``If``/``Loop`` levels allowed; CPython's tokenizer refuses the
#: 100th indentation level and the function body takes one.
MAX_DEPTH = 90
#: Nested loops allowed; CPython refuses more than 20 statically nested
#: blocks.
MAX_LOOPS = 19


class If:
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond):
        self.cond = cond
        self.then = []
        self.orelse = []

    def __repr__(self):
        return "If(%r, %r, %r)" % (self.cond, self.then, self.orelse)


class Loop:
    __slots__ = ("body",)

    def __init__(self):
        self.body = []

    def __repr__(self):
        return "Loop(%r)" % (self.body,)


class Assign:
    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs

    def __repr__(self):
        return "Assign(%r)" % (self.pairs,)


class _LoopJump:
    __slots__ = ("keyword",)

    def __init__(self, keyword):
        self.keyword = keyword

    def __repr__(self):
        return self.keyword.upper()


BREAK = _LoopJump("break")
CONTINUE = _LoopJump("continue")


class _Unstructured(Exception):
    pass


def structure(blocks, entry_id):
    """``(tree, None)`` for ``blocks`` reachable from ``entry_id``, or
    ``(None, reason)`` when the unit needs label dispatch."""
    try:
        return _Structurer(blocks, entry_id).run(), None
    except _Unstructured as exc:
        return None, str(exc)


class _Structurer:
    def __init__(self, blocks, entry_id):
        self.blocks = blocks
        self.entry = entry_id
        order = reverse_postorder(blocks, entry_id)
        self.index = index = {bid: i for i, bid in enumerate(order)}
        succs = {bid: blocks[bid].terminator.successors()
                 for bid in order}
        for bid in order:
            for succ in succs[bid]:
                if succ not in index:
                    raise _Unstructured("dangling edge B%d -> B%s"
                                        % (bid, succ))
        # Reachable predecessors only: a natural loop never takes in
        # dead code.
        preds = predecessors(blocks)
        self.preds = {bid: [p for p in preds[bid] if p in index]
                      for bid in order}
        idom = dominators(blocks, entry_id)
        # Dominator-tree children, each list in RPO.
        self.children = children = {bid: [] for bid in order}
        for bid in order[1:]:
            children[idom[bid]].append(bid)
        # Every retreating edge must be a back edge: its target dominates
        # its source (walk the source's idom chain down to the target's
        # RPO index). Count the forward in-edges of every block.
        self.fwd = fwd = dict.fromkeys(order, 0)
        self.back_sources = back = {}
        for s in order:
            for t in succs[s]:
                if index[t] > index[s]:
                    fwd[t] += 1
                    continue
                d = s
                while index[d] > index[t]:
                    d = idom[d]
                if d != t:
                    raise _Unstructured("irreducible edge B%d -> B%d"
                                        % (s, t))
                back.setdefault(t, []).append(s)
        self.placed_after = set()   # loop exits placed after their loop
        self._work = []

    def run(self):
        root = []
        self._work.append((self.entry, None, (), root, 0))
        while self._work:
            self._place(*self._work.pop())
        return root

    # Each placement appends ``x``'s code to ``out``; whatever ``out``
    # runs next begins with ``next_``. ``loops`` lists the enclosing
    # loops, innermost last, as ``(header, block after the loop)``.
    # Placements are pushed in reverse program order, so the stack pops
    # each list's writers in the order the list is filled.

    def _place(self, x, next_, loops, out, depth):
        """Block ``x`` and its edges, then its merge children; a loop
        header's code goes in a new ``Loop``, its exits after it."""
        if depth > MAX_DEPTH:
            raise _Unstructured("nesting deeper than %d" % MAX_DEPTH)
        fwd = self.fwd
        kids = self.children[x]
        merges = [c for c in kids if fwd[c] > 1]
        if x in self.back_sources:
            if len(loops) >= MAX_LOOPS:
                raise _Unstructured("more than %d nested loops" % MAX_LOOPS)
            body = self._loop_body(x)
            exits = [c for c in kids if c not in body]
            follows = [c for c in exits if fwd[c] > 1] or exits[:1]
            self.placed_after.update(follows)
            loop = Loop()
            out.append(loop)
            self._chain(follows, next_, loops, out, depth)
            merges = [c for c in merges if c in body]
            loops += ((x, follows[0] if follows else next_),)
            next_, out, depth = x, loop.body, depth + 1
        self._chain(merges, next_, loops, out, depth)
        if merges:
            next_ = merges[0]
        block = self.blocks[x]
        term = block.terminator
        if isinstance(term, Jump):
            if block.stmts:
                out.append(x)
            self._edge(x, term.target, term.phi_assigns, next_, loops, out,
                       depth)
        elif isinstance(term, Branch):
            if block.stmts:
                out.append(x)
            node = If(term.cond)
            out.append(node)
            self._edge(x, term.true_target, term.true_assigns, next_,
                       loops, node.then, depth + 1)
            self._edge(x, term.false_target, term.false_assigns, next_,
                       loops, node.orelse, depth + 1)
        else:
            out.append(x)

    def _loop_body(self, header):
        """The natural loop of ``header``: every block that reaches one
        of its back edges without passing through it."""
        body = {header}
        work = list(self.back_sources[header])
        while work:
            bid = work.pop()
            if bid not in body:
                body.add(bid)
                work.extend(self.preds[bid])
        return body

    def _chain(self, ys, next_, loops, out, depth):
        """Queue ``ys`` one after another in ``out``; each falls through
        to the next, the last to ``next_``."""
        for i in range(len(ys) - 1, -1, -1):
            follow = ys[i + 1] if i + 1 < len(ys) else next_
            self._work.append((ys[i], follow, loops, out, depth))

    def _edge(self, s, t, assigns, next_, loops, out, depth):
        if assigns:
            out.append(Assign(assigns))
        if self.index[t] > self.index[s] and self.fwd[t] == 1 \
                and t not in self.placed_after:
            self._work.append((t, next_, loops, out, depth))
            return
        if t == next_:
            return
        if loops:
            header, after = loops[-1]
            if t == header:
                out.append(CONTINUE)
                return
            if t == after:
                out.append(BREAK)
                return
        raise _Unstructured("edge B%d -> B%d needs a label" % (s, t))


def walk(tree):
    """Yield ``(depth, kind, arg)`` events for ``tree`` in program order:
    ``block`` (id), ``assign`` (pairs), ``if`` / ``ifnot`` (condition
    rep), ``else``, ``loop``, ``end`` (closes the innermost ``if`` or
    ``loop``), ``break`` and ``continue``. An ``If`` with two empty arms
    yields nothing, one with an empty ``then`` arm yields ``ifnot``."""
    stack = [(iter(tree), 0)]
    while stack:
        items, depth = stack[-1]
        item = next(items, stack)
        if item is stack:
            stack.pop()
        elif isinstance(item, int):
            yield depth, "block", item
        elif isinstance(item, str):          # "else" / "end", queued below
            yield depth, item, None
        elif isinstance(item, Assign):
            yield depth, "assign", item.pairs
        elif isinstance(item, _LoopJump):
            yield depth, item.keyword, None
        elif isinstance(item, Loop):
            yield depth, "loop", None
            stack.append((iter(("end",)), depth))
            stack.append((iter(item.body), depth + 1))
        elif item.then:
            yield depth, "if", item.cond
            stack.append((iter(("end",)), depth))
            if item.orelse:
                stack.append((iter(item.orelse), depth + 1))
                stack.append((iter(("else",)), depth))
            stack.append((iter(item.then), depth + 1))
        elif item.orelse:
            yield depth, "ifnot", item.cond
            stack.append((iter(("end",)), depth))
            stack.append((iter(item.orelse), depth + 1))
