"""The optimization-enabling static analyses (effects/escape/ranges) and
the passes they power (GVN, LICM, scalar replacement, range-based guard
pruning) — both on hand-built IR and end-to-end through the JIT."""

from __future__ import annotations

import pytest

from repro import CompileOptions, Lancet
from repro.analysis.cfg import def_counts, dominates, dominators
from repro.analysis.effects import (EffectSummary, clobbers, is_total,
                                    may_alias)
from repro.analysis.escape import escaping_names
from repro.analysis.ranges import RangeAnalysis, range_facts
from repro.errors import NoAllocError
from repro.lms.ir import Block, Branch, Effect, Jump, Return, Stmt
from repro.lms.rep import ConstRep, StaticRep, Sym
from repro.pipeline.gvn import global_value_numbering
from repro.pipeline.licm import hoist_loop_invariants
from repro.pipeline.rangeopt import prune_range_guards
from repro.pipeline.sink import sink_allocations


def stmt(name, op, args, effect=Effect.PURE, flags=None):
    return Stmt(Sym(name), op, args, effect, flags)


def diamond():
    """entry -> {left, right} -> merge."""
    b0, b1, b2, b3 = Block(0), Block(1), Block(2), Block(3, params=["p"])
    b0.terminator = Branch(Sym("c"), 1, [], 2, [])
    b1.terminator = Jump(3, [("p", Sym("x1"))])
    b2.terminator = Jump(3, [("p", Sym("x2"))])
    b3.terminator = Return(Sym("p"))
    return {0: b0, 1: b1, 2: b2, 3: b3}


class TestDominators:
    def test_diamond(self):
        blocks = diamond()
        idom = dominators(blocks, 0)
        assert idom[0] == 0 and idom[1] == 0 and idom[2] == 0
        assert idom[3] == 0
        assert dominates(idom, 0, 3)
        assert not dominates(idom, 1, 3)
        assert dominates(idom, 3, 3)

    def test_chain(self):
        b0, b1, b2 = Block(0), Block(1), Block(2)
        b0.terminator = Jump(1)
        b1.terminator = Jump(2)
        b2.terminator = Return(ConstRep(0))
        idom = dominators({0: b0, 1: b1, 2: b2}, 0)
        assert idom == {0: 0, 1: 0, 2: 1}
        assert dominates(idom, 0, 2)

    def test_def_counts(self):
        blocks = diamond()
        blocks[1].stmts.append(stmt("x1", "id", (ConstRep(1),)))
        counts = def_counts(blocks)
        assert counts["x1"] == 1 and counts["p"] == 1


class TestEffects:
    def test_num_arith_total_div_not(self):
        assert is_total(stmt("s", "add", (Sym("a"), Sym("b")),
                             flags={"num": True}))
        assert not is_total(stmt("s", "add", (Sym("a"), Sym("b"))))
        assert not is_total(stmt("s", "div", (Sym("a"), Sym("b")),
                                 flags={"num": True}))

    def test_alias_rules(self):
        k0, k1 = StaticRep(0, object()), StaticRep(1, object())
        assert not may_alias(k0, k1)
        assert may_alias(k0, StaticRep(0, object()))
        fresh = {"n1", "n2"}
        assert not may_alias(Sym("n1"), k0, fresh)
        assert not may_alias(Sym("n1"), Sym("n2"), fresh)
        assert may_alias(Sym("n1"), Sym("n1"), fresh)
        assert may_alias(Sym("n1"), Sym("other"), fresh)

    def test_putfield_clobbers_matching_field_only(self):
        load = ("getfield", Sym("o"), "x")
        assert clobbers(stmt("s", "putfield", (Sym("o"), "x", ConstRep(1)),
                             Effect.WRITE), load)
        assert not clobbers(stmt("s", "putfield",
                                 (Sym("o"), "y", ConstRep(1)),
                                 Effect.WRITE), load)

    def test_astore_distinct_const_indices_no_clobber(self):
        load = ("aload", Sym("a"), ConstRep(0))
        assert not clobbers(stmt("s", "astore",
                                 (Sym("a"), ConstRep(1), ConstRep(9)),
                                 Effect.WRITE), load)
        assert clobbers(stmt("s", "astore",
                             (Sym("a"), ConstRep(0), ConstRep(9)),
                             Effect.WRITE), load)
        assert not clobbers(stmt("s", "astore",
                                 (Sym("a"), Sym("i"), ConstRep(9)),
                                 Effect.WRITE), ("alen", Sym("a")))

    def test_phi_move_ids_never_clobber(self):
        # fuse materializes phi moves as `id` with Effect.WRITE.
        assert not clobbers(stmt("s", "id", (Sym("v"),), Effect.WRITE),
                            ("getfield", Sym("o"), "x"))

    def test_summary_purity(self):
        assert EffectSummary().is_pure
        assert not EffectSummary(reads=True).is_pure
        assert EffectSummary(reads=True, may_throw=True).is_read_only
        assert not EffectSummary(writes=True).is_read_only


class TestEscape:
    def test_returned_value_escapes(self):
        b = Block(0)
        b.stmts.append(stmt("arr", "array_lit", (ConstRep(1),),
                            Effect.ALLOC))
        b.terminator = Return(Sym("arr"))
        assert "arr" in escaping_names({0: b})

    def test_field_base_does_not_escape_but_stored_value_does(self):
        b = Block(0)
        b.stmts.append(stmt("obj", "new", (StaticRep(0, object()),),
                            Effect.ALLOC))
        b.stmts.append(stmt("val", "array_lit", (ConstRep(1),),
                            Effect.ALLOC))
        b.stmts.append(stmt("st", "putfield", (Sym("obj"), "f", Sym("val")),
                            Effect.WRITE))
        b.terminator = Return(ConstRep(None))
        escaping = escaping_names({0: b})
        assert "obj" not in escaping
        assert "val" in escaping            # stored into the heap

    def test_escape_flows_through_copies_and_phis(self):
        b0, b1 = Block(0), Block(1, params=["p"])
        b0.stmts.append(stmt("arr", "array_lit", (), Effect.ALLOC))
        b0.terminator = Jump(1, [("p", Sym("arr"))])
        b1.terminator = Return(Sym("p"))
        assert "arr" in escaping_names({0: b0, 1: b1})


class TestRanges:
    def test_loop_counter_stays_nonnegative(self):
        # i = 0; while (i < 10) i = i + 1;  -- i in [0, 10] at the header.
        b0 = Block(0)
        b0.terminator = Jump(1, [("i", ConstRep(0))])
        b1 = Block(1, params=["i"])
        b1.stmts.append(stmt("c", "lt", (Sym("i"), ConstRep(10))))
        b1.terminator = Branch(Sym("c"), 2, [], 3, [])
        b2 = Block(2)
        b2.stmts.append(stmt("i2", "add", (Sym("i"), ConstRep(1)),
                             flags={"num": True}))
        b2.terminator = Jump(1, [("i", Sym("i2"))])
        b3 = Block(3)
        b3.terminator = Return(Sym("i"))
        blocks = {0: b0, 1: b1, 2: b2, 3: b3}
        analysis, facts = range_facts(blocks, 0)
        lo, hi = facts[1][0]["i"]
        assert lo == 0
        # In the loop body the branch refined i < 10 (closed bound: 10).
        blo, bhi = facts[2][0]["i"]
        assert blo == 0 and bhi is not None and bhi <= 10

    def test_prove_compare_strictness(self):
        prove = RangeAnalysis.prove_compare
        assert prove("lt", (0, 4), (5, 9)) is True
        assert prove("lt", (0, 5), (5, 9)) is None      # closed bounds
        assert prove("le", (0, 5), (5, 9)) is True
        assert prove("ge", (0, 9), (10, 10)) is False
        assert prove("ge", (0, 10), (10, 10)) is None
        assert prove("ge", (10, 20), (0, 10)) is True
        assert prove("eq", (3, 3), (3, 3)) is True
        assert prove("ne", (0, 1), (5, 9)) is True

    def test_guard_pruned_with_provenance(self):
        b0 = Block(0)
        b0.stmts.append(stmt("i", "id", (ConstRep(3),)))
        b0.stmts.append(stmt("c", "ge", (Sym("i"), ConstRep(0))))
        b0.stmts.append(stmt("g", "guard", (Sym("c"), ConstRep(0)),
                             Effect.GUARD, flags={"src": ("f", 7)}))
        b0.terminator = Return(Sym("i"))
        blocks = {0: b0}
        pruned, folded, detail, __ = prune_range_guards(blocks, 0)
        assert pruned == 1 and folded == 0
        assert "in f (bci 7)" in detail[0]
        assert "range analysis" in detail[0]
        assert all(s.op != "guard" for s in b0.stmts)

    def test_unprovable_guard_kept(self):
        b0 = Block(0, params=["x"])
        b0.stmts.append(stmt("c", "ge", (Sym("x"), ConstRep(0))))
        b0.stmts.append(stmt("g", "guard", (Sym("c"), ConstRep(0)),
                             Effect.GUARD))
        b0.terminator = Return(Sym("x"))
        pruned, __, __, __ = prune_range_guards({0: b0}, 0,
                                                params=["x"])
        assert pruned == 0

    def test_branch_folding_removes_dead_block(self):
        b0 = Block(0)
        b0.stmts.append(stmt("c", "lt", (ConstRep(1), ConstRep(2))))
        b0.terminator = Branch(Sym("c"), 1, [], 2, [])
        b1 = Block(1)
        b1.terminator = Return(ConstRep("yes"))
        b2 = Block(2)
        b2.terminator = Return(ConstRep("no"))
        blocks = {0: b0, 1: b1, 2: b2}
        __, folded, __, __ = prune_range_guards(blocks, 0)
        assert folded == 1
        assert 2 not in blocks


#: Loops whose post-loop branch the range pass folds. Widening loop
#: bounds straight to unbounded instead of to the next threshold loses
#: ``sat``, ``off``, ``dn`` and ``nest``; ``lag`` (``j`` is compared
#: against nothing, so it widens to unbounded) needs the descending
#: phase. Every ``f(n)`` returns 1.
PRECISION_PROBES = {
    "sat": """
def f(n) {
  var x = 0; var i = 0;
  while (i < n) { if (x < 10) { x = x + 1; } i = i + 1; }
  if (x < 12) { return 1; }
  return 2;
}""",
    "cnt": """
def f(n) {
  var j = 0; var s = 0;
  while (j < 4) { s = s + j; j = j + 1; }
  if (j < 6) { return 1; }
  return 2;
}""",
    "off": """
def f(n) {
  var x = 0; var i = 0;
  while (i < n) { if (x + 1 < 10) { x = x + 1; } i = i + 1; }
  if (x < 12) { return 1; }
  return 2;
}""",
    "dn": """
def f(n) {
  var x = 20; var i = 0;
  while (i < n) { if (x > 3) { x = x - 1; } i = i + 1; }
  if (x > 1) { return 1; }
  return 2;
}""",
    "lag": """
def f(n) {
  var i = 0; var j = 0;
  while (i < 10) { j = i + 2; i = i + 1; }
  var k = j - 1;
  if (k < 12) { return 1; }
  return 2;
}""",
    "nest": """
def f(n) {
  var i = 0; var s = 0;
  while (i < 5) {
    var j = 0;
    while (j < i) { s = s + j; j = j + 1; }
    i = i + 1;
  }
  if (i < 7) { return 1; }
  return 2;
}""",
}

#: A ``branchy`` method of the benchmark corpus (seed 0) and its helper.
BRANCHY_SRC = """
def h3(x) {
  var y = (x * 68 + 227) % 1097;
  if (y > 543) { y = y - 543; }
  return y;
}
def m2(n, s) {
  var acc = s % 9063;
  var i = 0;
  while (i < n) {
    var t = (acc * 18 + i) % 9063;
    if (t < 2732) { acc = acc + t; }
    else { if (t < 7931) { acc = acc + h3(t); } else { acc = (acc + 101) % 9063; } }
    if (i % 7 == 0) { acc = acc % 9063; }
    i = i + 1;
  }
  return acc;
}
"""


def _range_run(src, fn, monkeypatch):
    """Compile ``fn`` at tier 2; returns the compiled unit, the range
    pass's ``pass.run`` event data and the number of range transfer
    calls counted by a monkeypatch."""
    calls = []
    transfer = RangeAnalysis.transfer

    def counting(self, block, env):
        calls.append(block.block_id)
        return transfer(self, block, env)

    monkeypatch.setattr(RangeAnalysis, "transfer", counting)
    jit = Lancet()
    jit.load(src)
    jit.telemetry.enable_trace()
    compiled = jit.compile_function("Main", fn)
    runs = [e.data for e in jit.telemetry.events("pass.run")
            if e.data["name"] == "range"]
    assert compiled.report.tier == 2 and len(runs) == 1
    return compiled, runs[0], len(calls)


class TestRangeWidening:
    @pytest.mark.parametrize("probe", sorted(PRECISION_PROBES))
    def test_post_loop_branch_folds(self, probe, monkeypatch):
        compiled, run, __ = _range_run(PRECISION_PROBES[probe], "f",
                                       monkeypatch)
        assert run["folded"] == 1
        assert [compiled(n) for n in (0, 3, 30)] == [1, 1, 1]

    def test_unrelated_constants_add_no_sweeps(self, monkeypatch):
        def loop(k):
            terms = " + ".join(str(101 + 7 * c) for c in range(k))
            return ("def f(n) { var x = 0; var s = 0; var i = 0;"
                    " while (i < n) { x = x + 1; s = s + %s; i = i + 1; }"
                    " return x + s; }" % terms)

        few = _range_run(loop(3), "f", monkeypatch)[2]
        many = _range_run(loop(30), "f", monkeypatch)[2]
        assert few == many

    def test_branchy_corpus_method_sweeps_per_block(self, monkeypatch):
        __, run, transfers = _range_run(BRANCHY_SRC, "m2", monkeypatch)
        assert transfers <= 6 * run["blocks_before"]

    def test_pass_run_reports_solver_transfers(self, monkeypatch):
        __, run, transfers = _range_run(BRANCHY_SRC, "m2", monkeypatch)
        assert run["transfers"] == transfers > 0

    def test_widen_jumps_to_name_thresholds(self):
        # x is compared against 10 through its copy y; z against nothing.
        b0 = Block(0)
        b0.stmts.append(stmt("y", "id", (Sym("x"),)))
        b0.stmts.append(stmt("c", "lt", (Sym("y"), ConstRep(10))))
        b0.terminator = Return(Sym("c"))
        analysis = RangeAnalysis({0: b0}, 0)
        assert analysis.thresholds["x"] == [-1, 0, 1, 9, 10, 11]
        assert "z" not in analysis.thresholds
        old = {"x": (0, 1), "z": (0, 1), "w": (0, 5)}
        new = {"x": (0, 2), "z": (0, 2), "w": (1, 4)}
        assert analysis.widen(old, new) == {
            "x": (0, 9), "z": (0, None), "w": (0, 5)}
        # Past the last threshold both bounds go, and so does the name.
        assert analysis.widen({"x": (0, 9)}, {"x": (-3, 12)}) == {}


class TestGVNPass:
    def test_cross_block_cse(self):
        b0 = Block(0, params=["a", "b"])
        b0.stmts.append(stmt("x", "mul", (Sym("a"), Sym("b")),
                             flags={"num": True}))
        b0.terminator = Jump(1)
        b1 = Block(1)
        b1.stmts.append(stmt("y", "mul", (Sym("a"), Sym("b")),
                             flags={"num": True}))
        b1.terminator = Return(Sym("y"))
        blocks = {0: b0, 1: b1}
        stats = global_value_numbering(blocks, 0)
        assert stats["cse"] == 1
        assert not b1.stmts
        assert b1.terminator.value == Sym("x")

    def test_commutative_canonicalization(self):
        b0 = Block(0, params=["a", "b"])
        b0.stmts.append(stmt("x", "add", (Sym("a"), Sym("b")),
                             flags={"num": True}))
        b0.stmts.append(stmt("y", "add", (Sym("b"), Sym("a")),
                             flags={"num": True}))
        b0.terminator = Return(Sym("y"))
        stats = global_value_numbering({0: b0}, 0)
        assert stats["cse"] == 1

    def test_load_cse_until_aliasing_store(self):
        obj = Sym("o")
        b0 = Block(0, params=["o", "v"])
        b0.stmts.append(stmt("l1", "getfield", (obj, "x"), Effect.READ))
        b0.stmts.append(stmt("l2", "getfield", (obj, "x"), Effect.READ))
        b0.stmts.append(stmt("st", "putfield", (obj, "x", Sym("v")),
                             Effect.WRITE))
        b0.stmts.append(stmt("l3", "getfield", (obj, "x"), Effect.READ))
        b0.terminator = Return(Sym("l3"))
        stats = global_value_numbering({0: b0}, 0)
        assert stats["loads"] == 1                 # l2 folded into l1
        ops = [s.sym.name for s in b0.stmts]
        assert "l3" in ops                         # reloaded after the store

    def test_redundant_phi_collapses(self):
        b0 = Block(0, params=["a"])
        b0.terminator = Jump(1, [("k", Sym("a")), ("i", ConstRep(0))])
        b1 = Block(1, params=["k", "i"])
        b1.stmts.append(stmt("c", "lt", (Sym("i"), Sym("k"))))
        b1.terminator = Branch(Sym("c"), 2, [], 3, [])
        b2 = Block(2)
        b2.stmts.append(stmt("i2", "add", (Sym("i"), ConstRep(1)),
                             flags={"num": True}))
        b2.terminator = Jump(1, [("k", Sym("k")), ("i", Sym("i2"))])
        b3 = Block(3)
        b3.terminator = Return(Sym("i"))
        blocks = {0: b0, 1: b1, 2: b2, 3: b3}
        stats = global_value_numbering(blocks, 0)
        assert stats["phis"] == 1
        assert b1.params == ["i"]                 # k collapsed to a
        assert b1.stmts[0].args == (Sym("i"), Sym("a"))


class TestLICMPass:
    def _loop(self):
        """pre(0) -> header(1) -> body(2) -> header; exit(3)."""
        b0 = Block(0, params=["a", "n"])
        b0.terminator = Jump(1, [("i", ConstRep(0))])
        b1 = Block(1, params=["i"])
        b1.stmts.append(stmt("c", "lt", (Sym("i"), Sym("n"))))
        b1.terminator = Branch(Sym("c"), 2, [], 3, [])
        b2 = Block(2)
        b2.terminator = Jump(1, [("i", Sym("i2"))])
        b3 = Block(3)
        b3.terminator = Return(Sym("i"))
        return {0: b0, 1: b1, 2: b2, 3: b3}, b1, b2

    def test_total_invariant_hoisted_from_body(self):
        blocks, __, body = self._loop()
        body.stmts.insert(0, stmt("inv", "mul", (Sym("a"), Sym("a")),
                                  flags={"num": True}))
        body.stmts.insert(1, stmt("i2", "add", (Sym("i"), ConstRep(1)),
                                  flags={"num": True}))
        hoisted = hoist_loop_invariants(blocks, 0)
        assert hoisted == 1
        assert blocks[0].stmts[-1].sym.name == "inv"
        assert all(s.sym.name != "inv" for s in body.stmts)

    def test_may_raise_invariant_only_from_header_prefix(self):
        blocks, header, body = self._loop()
        # Non-num mul may raise: hoistable from the header prefix...
        header.stmts.insert(0, stmt("h", "mul", (Sym("a"), Sym("a"))))
        # ...but not from the body (it may never execute).
        body.stmts.insert(0, stmt("x", "mul", (Sym("n"), Sym("n"))))
        body.stmts.insert(1, stmt("i2", "add", (Sym("i"), ConstRep(1)),
                                  flags={"num": True}))
        hoisted = hoist_loop_invariants(blocks, 0)
        assert hoisted == 1
        assert blocks[0].stmts[-1].sym.name == "h"
        assert any(s.sym.name == "x" for s in body.stmts)

    def test_variant_not_hoisted(self):
        blocks, __, body = self._loop()
        body.stmts.insert(0, stmt("v", "mul", (Sym("i"), Sym("i")),
                                  flags={"num": True}))
        body.stmts.insert(1, stmt("i2", "add", (Sym("i"), ConstRep(1)),
                                  flags={"num": True}))
        assert hoist_loop_invariants(blocks, 0) == 0


class TestScalarReplacement:
    def test_straight_line_array_sunk(self):
        b0 = Block(0, params=["a", "b"])
        b0.stmts.append(stmt("arr", "array_lit", (Sym("a"), Sym("b")),
                             Effect.ALLOC))
        b0.stmts.append(stmt("l0", "aload", (Sym("arr"), ConstRep(0)),
                             Effect.READ))
        b0.stmts.append(stmt("l1", "aload", (Sym("arr"), ConstRep(1)),
                             Effect.READ))
        b0.stmts.append(stmt("ln", "alen", (Sym("arr"),), Effect.READ))
        b0.terminator = Return(Sym("l0"))
        blocks = {0: b0}
        sunk = sink_allocations(blocks, 0)
        assert len(sunk) == 1
        assert all(s.effect is not Effect.ALLOC for s in b0.stmts)
        loads = {s.sym.name: s for s in b0.stmts}
        assert loads["l0"].args == (Sym("a"),)
        assert loads["l1"].args == (Sym("b"),)
        assert loads["ln"].args == (ConstRep(2),)

    def test_escaping_alloc_not_sunk(self):
        b0 = Block(0, params=["a"])
        b0.stmts.append(stmt("arr", "array_lit", (Sym("a"),), Effect.ALLOC))
        b0.terminator = Return(Sym("arr"))
        assert sink_allocations({0: b0}, 0) == []

    def test_dynamic_index_blocks_sinking(self):
        b0 = Block(0, params=["a", "i"])
        b0.stmts.append(stmt("arr", "array_lit", (Sym("a"),), Effect.ALLOC))
        b0.stmts.append(stmt("l", "aload", (Sym("arr"), Sym("i")),
                             Effect.READ))
        b0.terminator = Return(Sym("l"))
        assert sink_allocations({0: b0}, 0) == []


OPT_OFF = CompileOptions(opt_gvn=False, opt_licm=False,
                         opt_scalar_replace=False, opt_range_guards=False)

MERGE_SRC = '''
def pick(ax, ay, bx, by, flag) {
  var p = [ax, ay];
  if (flag) { p = [bx, by]; }
  return p[0] + p[1];
}
'''


class TestEndToEnd:
    def test_merge_alloc_now_passes_check_noalloc(self):
        """The regression the tentpole demands: a merge-materialized
        allocation used to fail checkNoAlloc; scalar replacement sinks it."""
        jit = Lancet(options=CompileOptions(check_noalloc=True))
        jit.load(MERGE_SRC)
        compiled = jit.compile_function("Main", "pick")
        assert compiled(1, 2, 30, 40, True) == 70
        assert compiled(1, 2, 30, 40, False) == 3

    def test_merge_alloc_fails_without_sinking(self):
        jit = Lancet(options=CompileOptions(check_noalloc=True,
                                            opt_scalar_replace=False))
        jit.load(MERGE_SRC)
        with pytest.raises(NoAllocError):
            jit.compile_function("Main", "pick")

    def test_sunk_sites_reported_in_diagnostics(self):
        jit = Lancet()
        jit.load(MERGE_SRC)
        diag = jit.analyze("Main", "pick")
        sunk = [d for d in diag if d.kind == "sink"]
        assert len(sunk) == 2
        assert all("sunk by scalar replacement" in d.message for d in sunk)
        assert all(d.severity == "info" for d in sunk)

    def test_speculated_bound_pruned_by_range_analysis(self):
        src = '''
        def sum(n) {
          var acc = 0;
          var i = 0;
          while (i < n) {
            Lancet.speculate(i >= 0);
            acc = acc + i;
            i = i + 1;
          }
          return acc;
        }
        '''
        jit = Lancet()
        jit.load(src)
        diag = jit.analyze("Main", "sum")
        assert any(d.kind == "range"
                   and "proven redundant by range analysis" in d.message
                   for d in diag)
        compiled = jit.compile_function("Main", "sum")
        assert "_DeoptEx" not in compiled.source
        assert compiled(10) == 45

        plain = Lancet(options=OPT_OFF)
        plain.load(src)
        unopt = plain.compile_function("Main", "sum")
        assert "_DeoptEx" in unopt.source
        assert unopt(10) == 45

    def test_gvn_and_licm_fire_end_to_end(self):
        src = '''
        def scaled(lo, hi, f) {
          var acc = 0;
          var i = lo;
          while (i < hi * f) { acc = acc + i; i = i + 1; }
          return acc;
        }
        '''
        jit = Lancet()
        jit.load(src)
        compiled = jit.compile_function("Main", "scaled")
        assert compiled(0, 4, 3) == 66
        # The invariant `hi * f` is computed once, outside the loop.
        assert compiled.source.count("_mul") == 1
        stats = {s["pass"]: s for s in compiled.report.pass_stats}
        assert "licm" in stats and "gvn" in stats

    def test_opt_passes_skipped_when_flags_off(self):
        jit = Lancet(options=OPT_OFF)
        jit.load(MERGE_SRC)
        compiled = jit.compile_function("Main", "pick")
        names = [s["pass"] for s in compiled.report.pass_stats]
        assert "gvn" not in names and "licm" not in names
        assert "sink" not in names and "range" not in names


class TestDeprecatedShim:
    def test_analysis_pipeline_shim_removed(self):
        # The deprecated AnalysisPipeline alias is gone; PassManager is
        # the only pass sequencer.
        with pytest.raises(ImportError):
            from repro.analysis.pipeline import AnalysisPipeline  # noqa: F401
        import repro.analysis as analysis
        assert not hasattr(analysis, "AnalysisPipeline")


class TestDeliteOptimization:
    """Kernel effect summaries unblock GVN/LICM/DCE on Delite launches.
    Before them, every launch was pessimized as an arbitrary write (never
    hoisted or merged) while paradoxically being removable when unused."""

    def make(self, body, module):
        from repro.optiml import load_optiml
        jit = Lancet()
        load_optiml(jit)
        jit.load(body, module=module)
        return jit, jit.vm.call(module, "mk")

    def test_loop_invariant_launch_hoisted(self):
        # vsum(xs) is invariant: write-free builtin, scalar result, total.
        # Previously pinned in the loop -- one launch per iteration.
        jit, cf = self.make('''
            def mk() {
              var xs = [1.0, 2.0, 3.0];
              return Lancet.compile(fun(n) {
                var total = 0.0;
                var i = 0;
                while (i < n) {
                  total = total + Optiml.vsum(xs);
                  i = i + 1;
                }
                return total;
              });
            }
        ''', "DeliteHoist")
        jit.delite.reset_clock()
        assert cf(5) == pytest.approx(30.0)
        assert jit.delite.ops_run == 1          # hoisted: 1 launch, 5 iters

    def test_duplicate_launch_merged_by_gvn(self):
        jit, cf = self.make('''
            def mk() {
              var xs = [1.0, 2.0, 3.0];
              return Lancet.compile(fun(d) {
                return Optiml.vsum(xs) + Optiml.vsum(xs);
              });
            }
        ''', "DeliteCSE")
        jit.delite.reset_clock()
        assert cf(0) == pytest.approx(12.0)
        assert jit.delite.ops_run == 1          # second launch CSE'd

    def test_stateful_launch_stays_pinned(self):
        # The kernel writes a captured accumulator: the launch must not
        # hoist out of the loop, and must not be deleted as an unused
        # allocation (its result is never read -- only the side effect,
        # observed here through the captured guest array).
        jit, pair = self.make('''
            def mk() {
              var xs = [1.0, 2.0];
              var acc = newArray(1, 0.0);
              var cf = Lancet.compile(fun(n) {
                var i = 0;
                while (i < n) {
                  Optiml.vmap(xs, fun(x) { acc[0] = acc[0] + x; return x; });
                  i = i + 1;
                }
                return i;
              });
              return [cf, acc];
            }
        ''', "DelitePinned")
        cf, acc = pair[0], pair[1]
        jit.delite.reset_clock()
        assert cf(3) == 3
        assert acc[0] == pytest.approx(9.0)     # 3 iterations x sum(xs)
        assert jit.delite.ops_run == 3          # never hoisted or DCE'd
