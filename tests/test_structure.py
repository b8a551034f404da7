"""The CFG structurer (repro.lms.structure) and the code rendered from it.

Random CFGs of ``Jump``/``Branch``/``Return`` blocks with phi assigns are
rendered to Python and run against a direct walk of the same CFG: both
must visit the same blocks in the same order and return the same value.
Hand-built graphs reach every fallback the structurer has.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lms.codegen_py import PyCodegen
from repro.lms.ir import Block, Branch, Effect, Jump, Return, Stmt
from repro.lms.rep import ConstRep, Sym
from repro.lms.structure import (BREAK, CONTINUE, MAX_DEPTH, MAX_LOOPS,
                                 If, Loop, structure)

#: Block visits after which both runs stop (random CFGs may not halt).
STEP_LIMIT = 60


class _Stop(Exception):
    pass


class Oracle:
    """The ``_callm`` hook every test block calls: ``("visit", b)``
    records a visit to block ``b`` and returns a value mixed from its
    parameter; ``("cond", b)`` reads the next input bit."""

    def __init__(self, inputs):
        self.inputs = list(inputs)
        self.pos = 0
        self.trace = []

    def __call__(self, method, recv, args):
        kind, bid = method
        if kind == "cond":
            bit = self.inputs[self.pos % len(self.inputs)] \
                if self.inputs else False
            self.pos += 1
            return bit
        self.trace.append(bid)
        if len(self.trace) > STEP_LIMIT:
            raise _Stop
        return (recv * 3 + bid) % 1009


def _visit(bid):
    return Stmt(Sym("v%d" % bid), "invoke_method",
                (ConstRep(("visit", bid)), Sym("p%d" % bid)), Effect.CALL)


def _cond(bid):
    return Stmt(Sym("c%d" % bid), "invoke_method",
                (ConstRep(("cond", bid)), ConstRep(None)), Effect.CALL)


def _assign(src, dst):
    return [("p%d" % dst, Sym("v%d" % src))]


def build(shape):
    """``shape``: one ``("jump", t)`` / ``("branch", t, f)`` /
    ``("return",)`` per block id; every block takes one parameter."""
    blocks = {}
    for bid, term in enumerate(shape):
        block = Block(bid, params=["p%d" % bid])
        block.stmts.append(_visit(bid))
        if term[0] == "jump":
            block.terminator = Jump(term[1], _assign(bid, term[1]))
        elif term[0] == "branch":
            block.stmts.append(_cond(bid))
            block.terminator = Branch(Sym("c%d" % bid),
                                      term[1], _assign(bid, term[1]),
                                      term[2], _assign(bid, term[2]))
        else:
            block.terminator = Return(Sym("v%d" % bid))
        blocks[bid] = block
    return blocks


def walk_cfg(blocks, arg, oracle):
    """The reference: interpret the CFG block by block."""
    bid, param = 0, arg
    while True:
        block = blocks[bid]
        value = oracle(("visit", bid), param, [])
        term = block.terminator
        if isinstance(term, Return):
            return value
        if isinstance(term, Branch):
            bid = term.true_target if oracle(("cond", bid), None, []) \
                else term.false_target
        else:
            bid = term.target
        param = value


class _Statics:
    objects = []


def render(blocks, oracle):
    codegen = PyCodegen(None, _Statics(), {})
    fn, source = codegen.generate(blocks, 0, ["p0"], None, oracle, None,
                                  None, optimize=False)
    return fn, source, codegen.fallback is None


def outcome(run, oracle):
    try:
        return run(), oracle.trace
    except _Stop:
        return "stopped", oracle.trace


def check_against_walk(blocks, inputs, arg=5):
    """Render ``blocks``, run both ways, compare; return whether the
    structured form was used."""
    tree, reason = structure(blocks, 0)
    ref_oracle = Oracle(inputs)
    expected = outcome(lambda: walk_cfg(blocks, arg, ref_oracle), ref_oracle)
    oracle = Oracle(inputs)
    fn, source, structured = render(blocks, oracle)
    assert structured == (tree is not None), reason
    assert ("__L" in source) == (not structured)
    assert outcome(lambda: fn(arg), oracle) == expected, source
    return structured


def reducible(shape):
    """Independent T1/T2 reducibility test on the reachable graph:
    drop self-loops, fold a node into its only predecessor; the CFG is
    reducible iff it collapses to the entry."""
    succs = {}
    work, seen = [0], set()
    while work:
        b = work.pop()
        if b in seen:
            continue
        seen.add(b)
        term = shape[b]
        succs[b] = set(term[1:]) if term[0] != "return" else set()
        work.extend(succs[b])
    changed = True
    while changed:
        changed = False
        for b in list(succs):
            succs[b].discard(b)                                    # T1
        for b in list(succs):
            if b == 0:
                continue
            preds = [p for p in succs if b in succs[p]]
            if len(preds) == 1:                                    # T2
                p = preds[0]
                succs[p].discard(b)
                succs[p] |= succs.pop(b)
                changed = True
                break
    return len(succs) == 1


@st.composite
def cfg_shapes(draw):
    n = draw(st.integers(1, 9))
    target = st.integers(0, n - 1)
    shape = []
    for bid in range(n):
        kind = draw(st.sampled_from(["jump", "branch", "branch", "return"]))
        if kind == "jump":
            shape.append(("jump", draw(target)))
        elif kind == "branch":
            shape.append(("branch", draw(target), draw(target)))
        else:
            shape.append(("return",))
    return shape


class TestRandomCfgs:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg_shapes(), st.lists(st.booleans(), max_size=12),
           st.integers(-50, 50))
    def test_rendered_code_matches_a_cfg_walk(self, shape, inputs, arg):
        blocks = build(shape)
        structured = check_against_walk(blocks, inputs, arg)
        if not reducible(shape):
            assert not structured, shape


def nested_diamonds(depth):
    """Diamond ``k`` sits in the true arm of diamond ``k - 1``; each
    merge jumps to the enclosing diamond's merge, the outermost one
    returns."""
    shape = {}
    ids = iter(range(10 ** 6))
    heads = [next(ids) for _ in range(depth)]
    merges = []
    for level, head in enumerate(heads):
        side, merge = next(ids), next(ids)
        merges.append(merge)
        shape[side] = ("jump", merge)
        shape[merge] = ("jump", merges[level - 1]) if level else ("return",)
        if level + 1 < depth:
            shape[head] = ("branch", heads[level + 1], side)
        else:
            leaf = next(ids)
            shape[head] = ("branch", leaf, side)
            shape[leaf] = ("jump", merge)
    return [shape[b] for b in range(len(shape))]


def nested_loops(depth):
    """``depth`` loops, each the body of the last: header ``k`` branches
    into header ``k + 1`` or leaves by jumping straight back to header
    ``k - 1``; the innermost body jumps back to its header."""
    shape = {}
    ids = iter(range(10 ** 6))
    entry = next(ids)
    heads = [next(ids) for _ in range(depth)]
    exit_ = next(ids)
    shape[entry] = ("jump", heads[0])
    shape[exit_] = ("return",)
    for level, head in enumerate(heads):
        out = exit_ if level == 0 else heads[level - 1]
        if level + 1 < depth:
            shape[head] = ("branch", heads[level + 1], out)
        else:
            body = next(ids)
            shape[head] = ("branch", body, out)
            shape[body] = ("jump", head)
    return [shape[b] for b in range(len(shape))]


class TestFallbacks:
    def test_irreducible_two_entry_loop(self):
        # 1 and 2 jump to each other; the entry reaches both.
        shape = [("branch", 1, 2), ("branch", 2, 3), ("branch", 1, 3),
                 ("return",)]
        tree, reason = structure(build(shape), 0)
        assert tree is None and "irreducible" in reason
        for inputs in ([True, True, False], [False, True, True, False],
                       [False, False]):
            assert not check_against_walk(build(shape), inputs)

    def test_exit_out_of_two_loops(self):
        # Outer loop 1, inner loop 2 (body 3); 3 leaves both loops for 5.
        shape = [("jump", 1), ("branch", 2, 5), ("branch", 3, 4),
                 ("branch", 5, 2), ("jump", 1), ("return",)]
        tree, reason = structure(build(shape), 0)
        assert tree is None and "needs a label" in reason
        for inputs in ([True, True, False, True], [True, False, False],
                       [True, True, False, False, False]):
            assert not check_against_walk(build(shape), inputs)

    def test_deep_diamond_nest_falls_back(self):
        shape = nested_diamonds(120)
        tree, reason = structure(build(shape), 0)
        assert tree is None and "nesting" in reason
        assert not check_against_walk(build(shape), [True] * 119 + [False])

    def test_diamond_nest_at_the_depth_cap_is_structured(self):
        shape = nested_diamonds(MAX_DEPTH)
        assert check_against_walk(build(shape), [True] * 20 + [False])

    def test_deep_loop_nest_falls_back(self):
        shape = nested_loops(25)
        tree, reason = structure(build(shape), 0)
        assert tree is None and "nested loops" in reason
        assert not check_against_walk(build(shape), [True] * 30 + [False])

    def test_loop_nest_at_the_cap_is_structured(self):
        shape = nested_loops(MAX_LOOPS)
        assert check_against_walk(build(shape), [True] * 25 + [False] * 40)

    def test_long_chain_needs_no_deep_recursion(self):
        # 3000 diamonds in sequence: a dominator tree 6000 deep that
        # renders flat.
        shape = []
        for k in range(3000):
            b = len(shape)
            shape += [("branch", b + 1, b + 2), ("jump", b + 3),
                      ("jump", b + 3)]
        shape.append(("return",))
        blocks = build(shape)
        tree, reason = structure(blocks, 0)
        assert tree is not None, reason
        oracle = Oracle([True, False])
        fn, source, structured = render(blocks, oracle)
        assert structured
        with pytest.raises(_Stop):
            fn(1)
        assert oracle.trace[:5] == [0, 1, 3, 5, 6]


class TestTreeShape:
    def test_while_loop_breaks_to_its_exit(self):
        # 0 -> 1 (header: branch body 2 / exit 3); 2 -> 1; 3 returns.
        shape = [("jump", 1), ("branch", 2, 3), ("jump", 1), ("return",)]
        tree, __ = structure(build(shape), 0)
        loops = [item for item in tree if isinstance(item, Loop)]
        assert len(loops) == 1
        assert tree[-1] == 3                  # the exit follows the loop
        (cond,) = [item for item in loops[0].body if isinstance(item, If)]
        assert BREAK in cond.orelse
        assert CONTINUE not in cond.then      # the back edge falls off


LOOP_SRC = '''
    def work(n) {
      var s = 0; var i = 0;
      while (i < n) { if (i % 3 == 0) { s = s + i; } i = i + 1; }
      return s;
    }
'''


class TestCodegenTelemetry:
    def test_structured_unit_is_reported(self, jit):
        jit.telemetry.enable_trace()
        jit.load(LOOP_SRC)
        compiled = jit.compile_function("Main", "work")
        assert compiled(10) == jit.vm.call("Main", "work", [10])
        assert "while True:" in compiled.source
        assert "__L" not in compiled.source
        (event,) = [e for e in jit.telemetry.events("compile.phase")
                    if e.data.get("phase") == "codegen"]
        assert event.data["structured"] is True
        assert event.data["fallback"] is None
        assert jit.telemetry.metrics.get("codegen.unstructured") == 0

    def test_fallback_is_counted_and_still_correct(self, jit, monkeypatch):
        import repro.lms.codegen_py as codegen_py
        monkeypatch.setattr(codegen_py, "structure",
                            lambda blocks, entry: (None, "forced"))
        jit.telemetry.enable_trace()
        jit.load(LOOP_SRC)
        compiled = jit.compile_function("Main", "work")
        assert compiled(10) == jit.vm.call("Main", "work", [10])
        assert "__L" in compiled.source
        (event,) = [e for e in jit.telemetry.events("compile.phase")
                    if e.data.get("phase") == "codegen"]
        assert event.data["structured"] is False
        assert event.data["fallback"] == "forced"
        assert jit.telemetry.metrics.get("codegen.unstructured") == 1
