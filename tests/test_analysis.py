"""The IR analysis framework: dataflow solver, verifier, DCE/guard
elimination, post-optimization checkNoAlloc, flow-sensitive taint, and the
JIT lint layer (``Lancet.analyze`` / ``repro jit --analyze``)."""

import time

import pytest

from repro import CompileOptions
from repro.analysis import (Diagnostics, TaintAnalysis, check_noalloc,
                            eliminate_dead, eliminate_redundant_guards,
                            live_sets, solve, verify_ir)
from repro.errors import IRVerifyError, NoAllocError, TaintError
from repro.lms.codegen_py import fuse_blocks
from repro.lms.ir import Block, Branch, Effect, Jump, Return, Stmt
from repro.lms.rep import ConstRep, Sym
from tests.conftest import load


def _block(bid, stmts=(), term=None, params=()):
    b = Block(bid, params)
    b.stmts = list(stmts)
    b.terminator = term
    return b


def _stmt(name, op, args, effect=Effect.PURE, flags=None):
    return Stmt(Sym(name), op, args, effect, flags)


def _diamond_with_taint():
    """B0 branches to B1 (taints) / B2 (doesn't); both join at B3(p3_0)."""
    return {
        0: _block(0, [_stmt("x", "id", (ConstRep(1),))],
                  Branch(Sym("x"), 1, [], 2, [])),
        1: _block(1, [_stmt("t", "taint", (Sym("x"),))],
                  Jump(3, [("p3_0", Sym("t"))])),
        2: _block(2, [_stmt("u", "id", (Sym("x"),))],
                  Jump(3, [("p3_0", Sym("u"))])),
        3: _block(3, [], Return(Sym("p3_0")), params=["p3_0"]),
    }


class TestSolver:
    def test_forward_taint_joins_at_phi(self):
        solution = solve(_diamond_with_taint(), 0, TaintAnalysis())
        # The tainted arm marks the block param on its edge; the join is
        # a union (may-taint), so B3 sees p3_0 as tainted.
        assert "t" in solution[1][1]
        assert "p3_0" in solution[3][0]
        # Flow-sensitivity: nothing is tainted before the source runs.
        assert solution[0][0] == frozenset()

    def test_forward_loop_reaches_fixpoint(self):
        # B0 -> B1(p) -> B1 (backedge taints on second trip) | B2.
        blocks = {
            0: _block(0, [_stmt("s", "taint", (ConstRep(0),))],
                      Jump(1, [("p1_0", Sym("s"))])),
            1: _block(1, [_stmt("y", "add", (Sym("p1_0"), ConstRep(1)))],
                      Branch(Sym("y"), 1, [("p1_0", Sym("y"))], 2, []),
                      params=["p1_0"]),
            2: _block(2, [], Return(Sym("y"))),
        }
        solution = solve(blocks, 0, TaintAnalysis())
        assert "p1_0" in solution[1][0]
        assert "y" in solution[2][0]

    def test_backward_liveness(self):
        blocks = {
            0: _block(0, [_stmt("a", "id", (ConstRep(1),)),
                          _stmt("b", "id", (ConstRep(2),))],
                      Jump(1, [])),
            1: _block(1, [], Return(Sym("a"))),
        }
        live = live_sets(blocks, 0)
        assert "a" in live[0][1]        # live-out of B0
        assert "b" not in live[0][1]

    def test_backward_solves_unreachable_blocks(self):
        # B1 -> B2 is unreachable from B0, yet still solved to fixpoint.
        blocks = {
            0: _block(0, [], Return(ConstRep(0))),
            1: _block(1, [], Jump(2, [])),
            2: _block(2, [], Return(Sym("c"))),
        }
        live = live_sets(blocks, 0)
        assert live[1] == (frozenset({"c"}), frozenset({"c"}))
        assert live[2][0] == frozenset({"c"})


class TestVerifier:
    def test_clean_cfg_passes(self):
        assert verify_ir(_diamond_with_taint(), 0, collect=True) == []

    def test_missing_successor_block(self):
        blocks = {0: _block(0, [], Jump(99))}
        with pytest.raises(IRVerifyError, match="missing block"):
            verify_ir(blocks, 0)

    def test_unreachable_block(self):
        blocks = {
            0: _block(0, [], Return(ConstRep(0))),
            1: _block(1, [], Return(ConstRep(1))),
        }
        errors = verify_ir(blocks, 0, collect=True)
        assert any("unreachable" in e for e in errors)

    def test_phi_mismatch(self):
        blocks = {
            0: _block(0, [], Jump(1, [("wrong", ConstRep(1))])),
            1: _block(1, [], Return(ConstRep(0)), params=["p1_0"]),
        }
        with pytest.raises(IRVerifyError, match="phi mismatch"):
            verify_ir(blocks, 0)

    def test_use_before_definition(self):
        blocks = {
            0: _block(0, [_stmt("a", "add", (Sym("ghost"), ConstRep(1)))],
                      Return(Sym("a"))),
        }
        with pytest.raises(IRVerifyError, match="before definition"):
            verify_ir(blocks, 0)

    def test_one_branch_definition_not_available_at_join(self):
        # "a" is defined on the true arm only; the join must not see it.
        blocks = {
            0: _block(0, [_stmt("c", "id", (ConstRep(1),))],
                      Branch(Sym("c"), 1, [], 2, [])),
            1: _block(1, [_stmt("a", "id", (ConstRep(7),))], Jump(3, [])),
            2: _block(2, [], Jump(3, [])),
            3: _block(3, [], Return(Sym("a"))),
        }
        errors = verify_ir(blocks, 0, collect=True)
        assert any("uses a before definition" in e for e in errors)

    def test_bad_deopt_metadata(self):
        blocks = {
            0: _block(0, [_stmt("g", "guard", (Sym("c"), 5), Effect.GUARD)],
                      Return(ConstRep(0))),
        }
        errors = verify_ir(blocks, 0, params=("c",), metas=[], collect=True)
        assert any("deopt meta" in e for e in errors)

    @pytest.mark.parametrize("op", ["guard", "guard_not", "putfield",
                                    "astore"])
    def test_reading_a_guard_or_store_sym(self, op):
        # Codegen assigns nothing to these syms, so a read of one is an
        # error whether a statement or a terminator makes it.
        args = {"guard": (Sym("c"), 0), "guard_not": (Sym("c"), 0),
                "putfield": (Sym("c"), "f", ConstRep(1)),
                "astore": (Sym("c"), ConstRep(0), ConstRep(1))}[op]
        blocks = {
            0: _block(0, [_stmt("w", op, args, Effect.WRITE),
                          _stmt("u", "id", (Sym("w"),))],
                      Return(Sym("w"))),
        }
        errors = verify_ir(blocks, 0, params=("c",), collect=True)
        assert errors == [
            "B0: u = id(w) reads w, which a %s never assigns" % op,
            "B0: return w reads w, which a %s never assigns" % op]

    def test_compiled_guards_and_stores_assign_nothing(self):
        j = load('''
            def f(a, x) {
              Lancet.speculate(x > 0);
              a[0] = x;
              return a[0];
            }
        ''')
        c = j.compile_function("Main", "f")
        assert c([0], 3) == 3
        assert "raise _DeoptEx" in c.source
        assert "= None" not in c.source

    def test_corrupting_real_compiled_ir_is_caught(self):
        j = load("def f(x) { if (x > 0) { return x; } return 0 - x; }")
        c = j.compile_function("Main", "f")
        result = c.ir
        assert verify_ir(result.blocks, result.entry_bid,
                         params=result.param_names, metas=result.metas,
                         collect=True) == []
        some_block = result.blocks[max(result.blocks)]
        some_block.terminator = Jump(424242)
        errors = verify_ir(result.blocks, result.entry_bid,
                           params=result.param_names, collect=True)
        assert any("missing block" in e for e in errors)

    def test_verify_ir_option_on_real_compile(self):
        j = load('''
            def f(x) {
              var s = 0; var i = 0;
              while (i < x) { s = s + i; i = i + 1; }
              return s;
            }
        ''', options=CompileOptions(verify_ir=True))
        assert j.compile_function("Main", "f")(5) == 10


class TestDeadCodeElimination:
    def test_dead_pure_removed_effectful_kept(self):
        blocks = {
            0: _block(0, [_stmt("dead", "mul", (ConstRep(2), ConstRep(3))),
                          _stmt("io", "print", (ConstRep(1),), Effect.IO),
                          _stmt("live", "add", (ConstRep(1), ConstRep(1)))],
                      Return(Sym("live"))),
        }
        assert eliminate_dead(blocks, 0) == 1
        ops = [s.op for s in blocks[0].stmts]
        assert ops == ["print", "add"]

    def test_dead_alloc_removed(self):
        blocks = {
            0: _block(0, [_stmt("arr", "new_array", (ConstRep(4),),
                               Effect.ALLOC)],
                      Return(ConstRep(0))),
        }
        assert eliminate_dead(blocks, 0) == 1
        assert blocks[0].stmts == []

    def test_transitively_dead_chain_removed(self):
        blocks = {
            0: _block(0, [_stmt("a", "id", (ConstRep(1),)),
                          _stmt("b", "add", (Sym("a"), ConstRep(1)))],
                      Return(ConstRep(0))),
        }
        assert eliminate_dead(blocks, 0) == 2

    def test_liveness_crosses_blocks(self):
        blocks = {
            0: _block(0, [_stmt("a", "id", (ConstRep(1),))], Jump(1, [])),
            1: _block(1, [], Return(Sym("a"))),
        }
        assert eliminate_dead(blocks, 0) == 0

    def test_redundant_guard_removed(self):
        blocks = {
            0: _block(0, [_stmt("c", "id", (ConstRep(1),)),
                          _stmt("g1", "guard", (Sym("c"), 0), Effect.GUARD),
                          _stmt("g2", "guard", (Sym("c"), 0), Effect.GUARD)],
                      Return(ConstRep(0))),
        }
        assert eliminate_redundant_guards(blocks) == 1
        guards = [s for s in blocks[0].stmts if s.op == "guard"]
        assert len(guards) == 1

    def test_guard_kept_across_residual_call(self):
        blocks = {
            0: _block(0, [_stmt("c", "id", (ConstRep(1),)),
                          _stmt("g1", "guard", (Sym("c"), 0), Effect.GUARD),
                          _stmt("r", "invoke", ("m", Sym("c")), Effect.CALL),
                          _stmt("g2", "guard", (Sym("c"), 0), Effect.GUARD)],
                      Return(ConstRep(0))),
        }
        assert eliminate_redundant_guards(blocks) == 0


class TestFuseBlocks:
    def _chain(self, n):
        blocks = {}
        for i in range(n):
            term = Jump(i + 1) if i < n - 1 else Return(ConstRep(0))
            blocks[i] = _block(i, [_stmt("s%d" % i, "id", (ConstRep(i),))],
                               term)
        return blocks

    def test_chain_collapses_to_entry(self):
        blocks = self._chain(6)
        fuse_blocks(blocks, 0)
        assert list(blocks) == [0]
        assert len(blocks[0].stmts) == 6
        assert isinstance(blocks[0].terminator, Return)

    def test_phi_assigns_become_id_stmts(self):
        blocks = {
            0: _block(0, [_stmt("v", "id", (ConstRep(7),))],
                      Jump(1, [("p1_0", Sym("v"))])),
            1: _block(1, [], Return(Sym("p1_0")), params=["p1_0"]),
        }
        fuse_blocks(blocks, 0)
        assert list(blocks) == [0]
        assert blocks[0].stmts[-1].sym.name == "p1_0"
        assert verify_ir(blocks, 0, collect=True) == []

    def test_merge_block_with_two_preds_not_fused(self):
        blocks = {
            0: _block(0, [_stmt("c", "id", (ConstRep(1),))],
                      Branch(Sym("c"), 1, [], 2, [])),
            1: _block(1, [], Jump(3, [])),
            2: _block(2, [], Jump(3, [])),
            3: _block(3, [], Return(ConstRep(0))),
        }
        fuse_blocks(blocks, 0)
        assert 3 in blocks          # two predecessors: must survive

    def test_self_loop_not_fused(self):
        blocks = {
            0: _block(0, [], Jump(1)),
            1: _block(1, [], Jump(1)),
        }
        fuse_blocks(blocks, 0)
        assert 1 in blocks

    def test_long_chain_fuses_in_linear_time(self):
        """Regression: fusing used to restart its scan after every merge
        (O(n^2) over long unrolled chains). A 20k-block chain must fuse
        in well under the quadratic regime's runtime."""
        blocks = self._chain(20000)
        t0 = time.perf_counter()
        fuse_blocks(blocks, 0)
        elapsed = time.perf_counter() - t0
        assert list(blocks) == [0]
        assert len(blocks[0].stmts) == 20000
        assert elapsed < 5.0        # quadratic restart took minutes


class TestCheckNoAllocPostDCE:
    def test_dead_allocation_passes(self):
        """An allocation DCE removes never reaches the generated code, so
        checkNoAlloc (now post-optimization) accepts it."""
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                return Lancet.checkNoAlloc(fun() {
                  var a = newArray(x, 0);
                  return x + 1;
                });
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(4) == 5
        assert "newArray" not in f.source

    def test_escaping_allocation_reports_op_and_provenance(self):
        j = load("def f(x) { return newArray(x, 0); }",
                 options=CompileOptions(check_noalloc=True))
        with pytest.raises(NoAllocError) as exc:
            j.compile_function("Main", "f")
        msg = str(exc.value)
        assert "allocation" in msg
        assert "Main.f" in msg
        assert "bci" in msg
        assert exc.value.sites

    def test_unit_level_pass_on_hand_ir(self):
        noalloc = {"noalloc": True, "src": ("M.f", 3)}
        blocks = {
            0: _block(0, [_stmt("a", "new_array", (ConstRep(4),),
                               Effect.ALLOC, dict(noalloc))],
                      Return(Sym("a"))),
        }
        sites = check_noalloc(blocks)
        assert sites == ["new_array allocation in M.f (bci 3)"]

    def test_guard_reported_as_deopt_point(self):
        flags = {"noalloc": True, "src": ("M.g", 9)}
        blocks = {
            0: _block(0, [_stmt("c", "id", (ConstRep(1),)),
                          _stmt("g", "guard", (Sym("c"), 0), Effect.GUARD,
                                dict(flags))],
                      Return(ConstRep(0))),
        }
        sites = check_noalloc(blocks)
        assert sites == ["deoptimization point (guard) in M.g (bci 9)"]

    def test_staged_slowpath_sites_prepended(self):
        sites = check_noalloc({}, staged_sites=["deopt site X"])
        assert sites == ["deopt site X"]


class TestFlowSensitiveTaint:
    def test_taint_through_loop_header_params(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                return Lancet.checkNoTaint(fun() {
                  var s = Lancet.taint(x);
                  var i = 0;
                  while (i < x) { s = s + 1; i = i + 1; }
                  println(s);
                  return 0;
                });
              });
            }
        ''')
        with pytest.raises(TaintError) as exc:
            j.vm.call("Main", "make")
        leak = [m for m in exc.value.leaks if "println" in m]
        assert leak, exc.value.leaks
        assert "IR path:" in leak[0]

    def test_taint_on_one_branch_only_reaches_join(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                return Lancet.checkNoTaint(fun() {
                  var s = 0;
                  if (x > 0) { s = Lancet.taint(x); }
                  println(s);
                  return 0;
                });
              });
            }
        ''')
        with pytest.raises(TaintError) as exc:
            j.vm.call("Main", "make")
        assert any("println" in m for m in exc.value.leaks)

    def test_merge_of_untainted_values_stays_clean(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                return Lancet.checkNoTaint(fun() {
                  var secret = Lancet.taint(x);
                  var t = 0;
                  if (x > 0) { t = 1; } else { t = 2; }
                  println(t);
                  return secret - secret;
                });
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(3) == 0

    def test_leak_message_includes_source_to_sink_path(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                return Lancet.checkNoTaint(fun() {
                  var secret = Lancet.taint(x);
                  var derived = secret * 2 + 1;
                  println(derived);
                  return 0;
                });
              });
            }
        ''')
        with pytest.raises(TaintError) as exc:
            j.vm.call("Main", "make")
        leak = exc.value.leaks[0]
        assert "taint source" in leak
        assert " -> " in leak

    def test_branch_leak_survives_block_fusion(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                return Lancet.checkNoTaint(fun() {
                  var secret = Lancet.taint(x);
                  var y = secret + 1;
                  if (y > 10) { return 1; }
                  return 0;
                });
              });
            }
        ''')
        with pytest.raises(TaintError) as exc:
            j.vm.call("Main", "make")
        leak = [m for m in exc.value.leaks if "branch" in m]
        assert leak, exc.value.leaks
        assert "IR path:" in leak[0]


class TestAnalyzeApi:
    def test_collects_taint_findings_instead_of_raising(self):
        j = load("def f(x) { var s = Lancet.taint(x); println(s); "
                 "return 0; }",
                 options=CompileOptions(check_taint=True))
        diag = j.analyze("Main", "f")
        assert any(d.kind == "taint" for d in diag.errors())
        assert "JIT lint report" in diag.render()

    def test_collects_noalloc_findings(self):
        j = load("def g(x) { return newArray(x, 0); }",
                 options=CompileOptions(check_noalloc=True))
        diag = j.analyze("Main", "g")
        assert any(d.kind == "noalloc" for d in diag.errors())

    def test_clean_unit_reports_info_only(self):
        j = load("def f(x) { return x * 2 + 1; }")
        diag = j.analyze("Main", "f")
        assert diag.errors() == []
        assert any(d.kind == "dce" for d in diag)

    def test_analyze_guest_closure(self):
        j = load("def make() { return fun(x) => x + 1; }")
        clo = j.vm.call("Main", "make")
        diag = j.analyze(clo)
        assert diag.errors() == []

    def test_to_dict_serializable(self):
        import json
        j = load("def f(x) { return x; }")
        json.dumps(j.analyze("Main", "f").to_dict())

    def test_diagnostics_severity_validated(self):
        with pytest.raises(ValueError):
            Diagnostics().add("fatal", "x", "boom")


class TestAnalysisObservability:
    def test_phase_timings_in_stats(self):
        j = load("def f(x) { return x + 1; }",
                 options=CompileOptions(verify_ir=True))
        j.compile_function("Main", "f")
        phases = j.stats()["phase_timings"]
        assert "analysis.optimize" in phases
        assert "analysis.taint" in phases
        assert "analysis.alloc" in phases
        assert "analysis.verify" in phases

    def test_report_phases_include_analysis(self):
        j = load("def f(x) { return x + 1; }")
        c = j.compile_function("Main", "f")
        assert "analysis.optimize" in c.report.phases


class TestCliAnalyze:
    def test_jit_analyze_flag_prints_lint_report(self, tmp_path, capsys):
        from repro.__main__ import main
        program = tmp_path / "prog.mj"
        program.write_text("def square(x) { return x * x; }")
        assert main(["jit", str(program), "square", "3", "--analyze"]) == 0
        captured = capsys.readouterr()
        assert "9" in captured.out
        assert "JIT lint report" in captured.err
