"""Speculation-soundness checkers (PR 7): the per-pass translation
validator (repro.analysis.validate), the deopt-state verifier
(repro.analysis.deoptcheck), their PassManager checkpoints, the
unvalidated-pass-off fallback recompile, and the `repro validate` CLI.

The mutation tests inject deliberately broken pass variants and assert
each bug class is caught by exactly the intended checker."""

from __future__ import annotations

import json

import pytest

from repro import CompileOptions, Lancet
from repro.__main__ import main
from repro.analysis.deoptcheck import check_bridge_stitch, check_deopt_state
from repro.analysis.validate import snapshot_ir, validate_pass
from repro.compiler.deopt import DeoptMeta, FrameTemplate
from repro.compiler.stagedinterp import CompileResult
from repro.errors import DeoptStateError, TranslationValidationError
from repro.frontend.compiler import compile_source
from repro.lms.ir import Block, Effect, Jump, Return, Stmt
from repro.lms.rep import ConstRep, Sym
from tests.conftest import load

STORE_SRC = '''
    class Box { var v; def init() { this.v = 0; } }
    def store(b, x) { b.v = x; return b; }
'''

TALK_SRC = '''
    def talk() { println("first"); println("second"); return 0; }
'''

SPEC_SRC = '''
    def spec(x) {
      if (Lancet.speculate(x < 100)) { return x * 2; }
      return 0 - x;
    }
'''


def method_for(source, name, module="Main"):
    classes = compile_source(source, module=module)
    return [c for c in classes if c.name == module][0].methods[name]


def make_result(blocks, entry=0, params=("a1",), metas=()):
    return CompileResult(blocks, entry, [], list(params), list(metas),
                         [], [], [], [], [])


@pytest.fixture
def no_fallback(monkeypatch):
    """Make validation rejects propagate instead of recompiling, so
    tests can assert the exact exception the checkpoint raised."""
    def reraise(self, exc, *args, **kwargs):
        raise exc
    monkeypatch.setattr(Lancet, "_revalidate_fallback", reraise)


def patch_gvn(monkeypatch, mutate):
    """Replace the GVN pass with one that runs the real pass and then
    applies ``mutate(blocks)`` — an injected miscompile."""
    import repro.pipeline.passes as passes
    from repro.pipeline.gvn import global_value_numbering

    def evil(blocks, entry_bid):
        stats = global_value_numbering(blocks, entry_bid)
        mutate(blocks)
        return stats
    monkeypatch.setattr(passes, "global_value_numbering", evil)


class TestMutationCatching:
    """Each injected pass bug is caught by exactly the intended checker."""

    def test_dropped_store_caught_by_validator(self, monkeypatch,
                                               no_fallback):
        def drop_store(blocks):
            for block in blocks.values():
                for i, stmt in enumerate(block.stmts):
                    if stmt.effect is Effect.WRITE and stmt.op == "putfield":
                        del block.stmts[i]
                        return
            raise AssertionError("no store to drop")
        patch_gvn(monkeypatch, drop_store)
        j = load(STORE_SRC)
        with pytest.raises(TranslationValidationError) as exc:
            j.compile_function("Main", "store")
        assert exc.value.pass_name == "gvn"
        assert any("dropped effectful op" in f for f in exc.value.findings)

    def test_reordered_effects_caught_by_validator(self, monkeypatch,
                                                   no_fallback):
        def swap_ios(blocks):
            for block in blocks.values():
                ios = [i for i, s in enumerate(block.stmts)
                       if s.effect is Effect.IO]
                if len(ios) >= 2:
                    a, b = ios[0], ios[1]
                    block.stmts[a], block.stmts[b] = \
                        block.stmts[b], block.stmts[a]
                    return
            raise AssertionError("no IO pair to swap")
        patch_gvn(monkeypatch, swap_ios)
        j = load(TALK_SRC)
        with pytest.raises(TranslationValidationError) as exc:
            j.compile_function("Main", "talk")
        assert exc.value.pass_name == "gvn"
        assert any("reordered" in f for f in exc.value.findings)

    def test_strengthened_guard_caught_by_validator(self, monkeypatch,
                                                    no_fallback):
        def flip_guard(blocks):
            for block in blocks.values():
                for stmt in block.stmts:
                    if stmt.op == "guard":
                        stmt.op = "guard_not"   # test the opposite thing
                        return
            raise AssertionError("no guard to flip")
        patch_gvn(monkeypatch, flip_guard)
        j = load(SPEC_SRC)
        with pytest.raises(TranslationValidationError) as exc:
            j.compile_function("Main", "spec")
        assert exc.value.pass_name == "gvn"
        assert any("introduced or strengthened guard" in f
                   for f in exc.value.findings)

    def test_stale_deopt_slot_caught_by_deoptcheck(self, monkeypatch,
                                                   no_fallback):
        """Remapping a deopt state template to a nonexistent live value
        is invisible to the translation validator (the IR itself is
        untouched) and must be caught by the deopt-state verifier."""
        import repro.pipeline.passes as passes
        state = {"done": False}

        def corrupting_snapshot(result):
            if not state["done"]:
                for meta in result.metas:
                    for ft in meta.frames:
                        for i, t in enumerate(ft.locals_t):
                            if isinstance(t, tuple) and t[0] == "live":
                                locals_t = list(ft.locals_t)
                                locals_t[i] = ("live", 99)
                                ft.locals_t = type(ft.locals_t)(locals_t)
                                state["done"] = True
                                return snapshot_ir(result)
            return snapshot_ir(result)
        monkeypatch.setattr(passes, "snapshot_ir", corrupting_snapshot)
        j = load(SPEC_SRC)
        with pytest.raises(DeoptStateError) as exc:
            j.compile_function("Main", "spec")
        assert state["done"], "mutation never found a live template"
        assert any("references live value #99" in f
                   for f in exc.value.findings)
        # bci provenance on the finding
        assert any("bci" in f for f in exc.value.findings)


class TestFallbackRecompile:
    def test_reject_recompiles_with_pass_off(self, monkeypatch):
        """Without the no_fallback fixture a validation reject recovers:
        the unit recompiles with the blamed pass disabled, the program
        still runs correctly, and telemetry records the reject."""
        def drop_store(blocks):
            for block in blocks.values():
                for i, stmt in enumerate(block.stmts):
                    if stmt.effect is Effect.WRITE and stmt.op == "putfield":
                        del block.stmts[i]
                        return
        patch_gvn(monkeypatch, drop_store)
        j = load(STORE_SRC)
        j.telemetry.enable_trace()
        compiled = j.compile_function("Main", "store")
        box = j.vm.new_object("Box", [])
        assert compiled(box, 42) is box
        assert box.get("v") == 42        # the store actually happened
        rejects = j.telemetry.events("validate.reject")
        assert len(rejects) == 1
        assert rejects[0].data["pass_name"] == "gvn"
        assert "dropped effectful op" in rejects[0].data["error"]


class TestCleanPrograms:
    """Existing programs compile with zero findings under both checkers."""

    SRC = '''
        class Point { var x; var y;
          def init(x, y) { this.x = x; this.y = y; } }
        def work(n) {
          var total = 0;
          var i = 0;
          while (i < n) {
            var p = new Point(i, i * 2);
            total = total + p.x + p.y;
            i = i + 1;
          }
          return total;
        }
    '''

    def test_loop_with_allocs_validates_clean(self):
        j = load(self.SRC)
        compiled = j.compile_function("Main", "work")
        assert compiled(10) == sum(i + i * 2 for i in range(10))
        checks = [s for s in compiled.report.pass_stats
                  if s["pass"].startswith("validate.")]
        assert len(checks) >= 5          # staged baseline + each opt pass
        assert all(s["findings"] == 0 and s["deopt_findings"] == 0
                   for s in checks)

    def test_speculation_validates_clean(self):
        j = load(SPEC_SRC)
        compiled = j.compile_function("Main", "spec")
        assert compiled(5) == 10
        assert all(s["findings"] == 0 for s in compiled.report.pass_stats
                   if s["pass"].startswith("validate."))

    def test_analyze_reports_checkpoints(self):
        j = load(self.SRC)
        diag = j.analyze("Main", "work")
        infos = [d for d in diag.findings
                 if d.kind == "validate" and d.severity == "info"]
        assert infos and "checkpoint" in infos[0].message
        assert "0 finding(s)" in infos[0].message


class TestDeoptCheckUnit:
    """check_deopt_state on hand-built IR."""

    def guarded_result(self, lives, locals_t, method=None, bci=0,
                       params=("a1",)):
        if method is None:
            method = method_for('def f(x) { return x; }', "f")
        meta = DeoptMeta([FrameTemplate(method, bci, tuple(locals_t), ())],
                         reason="test", kind="interpret")
        b0 = Block(0)
        b0.stmts.append(Stmt(Sym("c"), "lt", (Sym("a1"), ConstRep(10)),
                             Effect.PURE))
        b0.stmts.append(Stmt(Sym("g"), "guard",
                             (Sym("c"), 0) + tuple(lives), Effect.GUARD))
        b0.terminator = Return(ConstRep(0))
        return make_result({0: b0}, params=params, metas=[meta])

    def test_sound_site_is_clean(self):
        result = self.guarded_result((Sym("a1"),), [("live", 0)])
        assert check_deopt_state(result) == []

    def test_undefined_live_value(self):
        result = self.guarded_result((Sym("ghost"),), [("live", 0)])
        findings = check_deopt_state(result)
        assert any("ghost" in f and "not defined on every path" in f
                   for f in findings)

    def test_live_index_out_of_range(self):
        result = self.guarded_result((Sym("a1"),), [("live", 3)])
        findings = check_deopt_state(result)
        assert any("references live value #3 (site has 1)" in f
                   for f in findings)

    def test_missing_slot_template(self):
        # slot 0 is live at bci 0 of f(x) but the template list is empty
        result = self.guarded_result((Sym("a1"),), [])
        findings = check_deopt_state(result)
        assert any("live slot 0 has no state template" in f
                   for f in findings)

    def test_findings_carry_bci_provenance(self):
        result = self.guarded_result((Sym("ghost"),), [("live", 0)])
        findings = check_deopt_state(result)
        assert any("Main.f bci 0" in f for f in findings)

    def test_missing_meta(self):
        result = self.guarded_result((Sym("a1"),), [("live", 0)])
        result.metas = []
        findings = check_deopt_state(result)
        assert any("missing deopt meta" in f for f in findings)


class TestStitchedBridgeStatics:
    """The PR 6 bug class — a stitched bridge writing a loop-header slot
    whose block parameter was pruned — is now a *static* diagnostic with
    bytecode provenance, both at stitch time (check_bridge_stitch) and
    on the stitched IR itself (check_deopt_state)."""

    def trace_blocks(self, header_params):
        # B0 prologue -> B1 loop header -> back edge to itself.
        b0 = Block(0)
        b0.terminator = Jump(1, [(p, Sym("a1")) for p in header_params])
        b1 = Block(1, params=list(header_params))
        b1.terminator = Jump(1, [(p, Sym(p)) for p in header_params])
        return {0: b0, 1: b1}

    def test_stitch_refused_with_provenance(self):
        method = method_for('def loop(x) { return x; }', "loop")
        # Slot 1's header param p1_1 was pruned (loop-invariant) but the
        # bridge changed the slot's value: 7 -> 9.
        result = make_result(self.trace_blocks(("p1_0",)), params=("a1",))
        findings = check_bridge_stitch(
            result, live_slots=(0, 1), start_locals=[5, 7],
            end_locals=[5, 9], method=method, header_bci=4)
        assert len(findings) == 1
        assert findings[0].startswith("bridge writes pruned invariant slot 1")
        assert "Main.loop" in findings[0] and "bci 4" in findings[0]

    def test_stitch_allowed_when_slot_retained_or_unchanged(self):
        method = method_for('def loop(x) { return x; }', "loop")
        # Retained param: fine even though the bridge writes it.
        result = make_result(self.trace_blocks(("p1_0", "p1_1")),
                             params=("a1",))
        assert check_bridge_stitch(result, (0, 1), [5, 7], [5, 9],
                                   method, 4) == []
        # Pruned but unchanged: fine.
        result = make_result(self.trace_blocks(("p1_0",)), params=("a1",))
        assert check_bridge_stitch(result, (0, 1), [5, 7], [5, 7],
                                   method, 4) == []

    def test_stitched_ir_with_pruned_slot_reported_statically(self):
        """A stitched trace whose guard still names the pruned header
        param p1_1 in its live set is flagged by check_deopt_state with
        the pruned-param classification and bci provenance."""
        method = method_for('def loop(x) { return x; }', "loop")
        blocks = self.trace_blocks(("p1_0",))
        meta = DeoptMeta([FrameTemplate(method, 0, (("live", 0),), ())],
                         reason="bridge exit", kind="interpret")
        b1 = blocks[1]
        b1.stmts.append(Stmt(Sym("c"), "lt", (Sym("p1_0"), ConstRep(10)),
                             Effect.PURE))
        b1.stmts.append(Stmt(Sym("g"), "guard",
                             (Sym("c"), 0, Sym("p1_1")), Effect.GUARD))
        result = make_result(blocks, params=("a1",), metas=[meta])
        findings = check_deopt_state(result)
        assert any("maps to pruned header param p1_1" in f
                   for f in findings)
        assert any("bci 0" in f for f in findings)


class TestValidatorUnit:
    """validate_pass on hand-built IR mutations."""

    def linear_result(self):
        b0 = Block(0)
        b0.stmts.append(Stmt(Sym("v"), "add", (Sym("a1"), ConstRep(1)),
                             Effect.PURE, {"num": True}))
        b0.stmts.append(Stmt(Sym("w"), "native", ("out", Sym("v")),
                             Effect.IO))
        b0.terminator = Return(Sym("v"))
        return make_result({0: b0})

    def test_identical_ir_validates(self):
        result = self.linear_result()
        before = snapshot_ir(result)
        assert validate_pass("gvn", before, result) == []

    def test_commutative_swap_is_sound(self):
        result = self.linear_result()
        before = snapshot_ir(result)
        stmt = result.blocks[0].stmts[0]
        stmt.args = (ConstRep(1), Sym("a1"))    # add is commutative
        assert validate_pass("gvn", before, result) == []

    def test_changed_return_value_is_caught(self):
        result = self.linear_result()
        before = snapshot_ir(result)
        result.blocks[0].terminator = Return(Sym("a1"))
        findings = validate_pass("gvn", before, result)
        assert any("return value changed" in f for f in findings)

    def test_introduced_effect_is_caught_even_for_deleting_passes(self):
        result = self.linear_result()
        before = snapshot_ir(result)
        result.blocks[0].stmts.append(
            Stmt(Sym("z"), "native", ("extra", Sym("v")), Effect.IO))
        result.blocks[0].terminator = Return(Sym("v"))
        findings = validate_pass("sink", before, result)
        assert any("introduced effectful op" in f for f in findings)

    def test_sink_may_delete_stores(self):
        result = self.linear_result()
        result.blocks[0].stmts.insert(
            1, Stmt(Sym("s"), "putfield",
                    (Sym("v"), "f", ConstRep(0)), Effect.WRITE))
        before = snapshot_ir(result)
        del result.blocks[0].stmts[1]
        assert validate_pass("sink", before, result) == []
        # ... but a structure-preserving pass may not.
        result2 = self.linear_result()
        result2.blocks[0].stmts.insert(
            1, Stmt(Sym("s"), "putfield",
                    (Sym("v"), "f", ConstRep(0)), Effect.WRITE))
        before2 = snapshot_ir(result2)
        del result2.blocks[0].stmts[1]
        findings = validate_pass("licm", before2, result2)
        assert any("dropped effectful op" in f for f in findings)

    def test_cse_onto_a_back_edge_is_sound(self):
        # B1(p) guards lt(p, add(p, p)); the back edge carries a second
        # add(p, p). CSE sends the guarded one round the loop instead,
        # which must leave the guard's condition term unchanged.
        def loop(back):
            b0 = Block(0)
            b0.terminator = Jump(1, [("p", Sym("a1"))])
            b1 = Block(1, ["p"])
            b1.stmts = [
                Stmt(Sym("t"), "add", (Sym("p"), Sym("p")), Effect.PURE,
                     {"num": True}),
                Stmt(Sym("c"), "lt", (Sym("p"), Sym("t")), Effect.PURE,
                     {"num": True}),
                Stmt(Sym("g"), "guard", (Sym("c"), 0, Sym("p")),
                     Effect.GUARD),
                Stmt(Sym("u"), "add", (Sym("p"), Sym("p")), Effect.PURE,
                     {"num": True})]
            b1.terminator = Jump(1, [("p", Sym(back))])
            return make_result({0: b0, 1: b1},
                               metas=[DeoptMeta([], reason="branch")])

        before = snapshot_ir(loop("u"))
        after = loop("t")
        del after.blocks[1].stmts[3]
        assert validate_pass("gvn", before, after) == []

    def test_shared_subterms_stay_cheap(self):
        # v64 = v63 - v63 = ... : as a tree its term has 2**64 leaves,
        # but interned it is 64 nodes, so snapshot and check are fast.
        b0 = Block(0)
        prev = Sym("a1")
        for i in range(64):
            b0.stmts.append(Stmt(Sym("v%d" % i), "sub", (prev, prev),
                                 Effect.PURE, {"num": True}))
            prev = Sym("v%d" % i)
        b0.stmts.append(Stmt(Sym("w"), "native", ("out", prev), Effect.IO))
        b0.terminator = Return(prev)
        result = make_result({0: b0})
        before = snapshot_ir(result)
        assert len(before.intern) < 100
        assert validate_pass("gvn", before, result) == []

    def test_rename_is_sound(self):
        result = self.linear_result()
        before = snapshot_ir(result)
        b0 = result.blocks[0]
        b0.stmts[0] = Stmt(Sym("r9"), "add", (Sym("a1"), ConstRep(1)),
                           Effect.PURE, {"num": True})
        b0.stmts[1] = Stmt(Sym("w"), "native", ("out", Sym("r9")),
                           Effect.IO)
        b0.terminator = Return(Sym("r9"))
        assert validate_pass("gvn", before, result) == []


class TestValidateCLI:
    PROGRAM = '''
        def main() { return 41 + 1; }
        def double(x) { return x + x; }
    '''

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "prog.mj"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_validate_clean_program(self, program, capsys):
        assert main(["validate", program]) == 0
        out = capsys.readouterr().out
        assert "JIT lint report" in out
        assert "validate" in out and "checkpoint" in out

    def test_validate_strict_clean_program(self, program, capsys):
        assert main(["validate", program, "--strict"]) == 0

    def test_validate_json_filters_to_soundness_kinds(self, program,
                                                      capsys):
        assert main(["validate", program, "double", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        kinds = {f["kind"] for f in report["findings"]}
        assert kinds <= {"verify", "validate", "deoptcheck", "compile"}
        assert "validate" in kinds

    def test_analyze_keeps_optimizer_findings(self, program, capsys):
        assert main(["analyze", program, "double", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        kinds = {f["kind"] for f in report["findings"]}
        assert "dce" in kinds            # optimizer info, filtered out above

    def test_strict_fails_on_warning(self, program, capsys, monkeypatch):
        # Force a warning-severity finding through analyze --strict.
        real = Lancet.analyze

        def warn_analyze(self, target, method_name=None, options=None):
            diag = real(self, target, method_name, options=options)
            diag.add("warning", "compile", "synthetic warning")
            return diag
        monkeypatch.setattr(Lancet, "analyze", warn_analyze)
        assert main(["analyze", program, "double"]) == 0
        assert main(["analyze", program, "double", "--strict"]) == 1
        capsys.readouterr()


class TestOptionsPlumbing:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        opts = CompileOptions()
        assert not opts.validate_passes and not opts.verify_deopt
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        opts = CompileOptions()
        assert opts.validate_passes and opts.verify_deopt

    def test_checkers_off_means_no_checkpoints(self):
        j = Lancet(options=CompileOptions(validate_passes=False,
                                          verify_deopt=False))
        j.load(SPEC_SRC)
        compiled = j.compile_function("Main", "spec")
        assert compiled(5) == 10
        assert not any(s["pass"].startswith("validate.")
                       for s in compiled.report.pass_stats)
