"""Speculative optimization (paper 3.2): likely/speculate/stable,
slowpath/fastpath, @stable fields with invalidation."""

import pytest

from repro import CompileOptions
from tests.conftest import load


class TestSpeculate:
    SRC = '''
        def make() {
          return Lancet.compile(fun(x) {
            if (Lancet.speculate(x < 100)) { return x * 2; }
            else { return 0 - x; }
          });
        }
    '''

    def test_fast_path(self):
        j = load(self.SRC)
        f = j.vm.call("Main", "make")
        assert f(5) == 10
        assert f.deopt_count == 0

    def test_else_branch_not_compiled(self):
        j = load(self.SRC)
        f = j.vm.call("Main", "make")
        assert "_DeoptEx" in f.source
        # the negation branch is gone from compiled code
        assert "0 - " not in f.source and "_sub(0" not in f.source

    def test_deopt_recovers_semantics(self):
        j = load(self.SRC)
        f = j.vm.call("Main", "make")
        assert f(200) == -200
        assert f.deopt_count == 1
        assert f.valid            # speculate keeps the compiled code

    def test_repeated_deopts(self):
        j = load(self.SRC)
        f = j.vm.call("Main", "make")
        for v in (150, 300, 50):
            expected = v * 2 if v < 100 else -v
            assert f(v) == expected
        assert f.deopt_count == 2


class TestStable:
    SRC = '''
        class Config { var limit; def init(l) { this.limit = l; } }
        def make(c) {
          return Lancet.compile(fun(x) => x + Lancet.stable(c.limit));
        }
    '''

    def test_folds_snapshot(self):
        j = load(self.SRC)
        c = j.vm.new_object("Config", [7])
        f = j.vm.call("Main", "make", [c])
        assert f(1) == 8
        assert "_add(a1, 7)" in f.source or "a1 + 7" in f.source

    def test_change_triggers_recompile(self):
        j = load(self.SRC)
        c = j.vm.new_object("Config", [7])
        f = j.vm.call("Main", "make", [c])
        f(0)
        c.put("limit", 9)
        assert f(1) == 10          # correct via deopt, then invalidated
        assert not f.valid or f.compile_count > 1
        assert f(1) == 10          # recompiled against the new value
        assert f.valid
        assert f.compile_count == 2
        assert "9" in f.source


class TestStableFields:
    SRC = '''
        class Node {
          var key; var left; var right;
          def init(k) { this.key = k; this.left = null; this.right = null; }
        }
        def lookupGen(root) {
          // unrollTopLevel: clone the traversal per (static) node so the
          // tree structure becomes branching code (paper 3.2).
          return Lancet.compile(fun(k) {
            return Lancet.unrollTopLevel(fun() {
              var n = root;
              while (n != null) {
                if (n.key == k) { return true; }
                if (k < n.key) { n = n.left; } else { n = n.right; }
              }
              return false;
            });
          });
        }
    '''

    def build(self, j, keys):
        nodes = {}
        root = None
        for k in keys:
            n = j.vm.new_object("Node", [k])
            nodes[k] = n
            if root is None:
                root = n
            else:
                cur = root
                while True:
                    if k < cur.get("key"):
                        if cur.get("left") is None:
                            cur.put("left", n)
                            break
                        cur = cur.get("left")
                    else:
                        if cur.get("right") is None:
                            cur.put("right", n)
                            break
                        cur = cur.get("right")
        return root, nodes

    def test_tree_lookup_compiles_to_decision_code(self):
        j = load(self.SRC)
        j.mark_stable("Node", "left")
        j.mark_stable("Node", "right")
        j.mark_stable("Node", "key")
        root, __ = self.build(j, [10, 5, 15, 3, 7])
        f = j.vm.call("Main", "lookupGen", [root])
        for k in (10, 5, 15, 3, 7):
            assert f(k) is True
        for k in (1, 6, 99):
            assert f(k) is False
        # The tree became branching code: keys embedded as constants,
        # no field reads left.
        assert "fields[" not in f.source and "_getf" not in f.source

    def test_structural_update_invalidates_and_recompiles(self):
        j = load(self.SRC)
        j.mark_stable("Node", "left")
        j.mark_stable("Node", "right")
        j.mark_stable("Node", "key")
        root, nodes = self.build(j, [10, 5, 15])
        f = j.vm.call("Main", "lookupGen", [root])
        assert f(7) is False
        # Insert 7 under 5 — writes a @stable field -> invalidation.
        n7 = j.vm.new_object("Node", [7])
        nodes[5].put("right", n7)
        assert not f.valid
        assert f(7) is True          # recompiled against the new structure
        assert f.compile_count == 2

    def test_recompiled_unit_owns_its_stable_deps(self):
        """After a recompile, a write to a field only the recompiled code
        read must invalidate it: inserting 10 recompiles the lookup,
        and inserting 5 under 10 must not leave it stale."""
        from repro import Lancet
        from repro.apps import load_app
        j = Lancet()
        load_app(j, "stabletree", module="Stabletree")
        for field in ("key", "left", "right"):
            j.mark_stable("Node", field)
        root = None
        for key in (50, 20, 80):
            root = j.vm.call("Stabletree", "insert", [root, key, key])
        look = j.vm.call("Stabletree", "makeLookup", [root])
        for key in (10, 5):
            j.vm.call("Stabletree", "insert", [root, key, key])
            assert look(key) == j.vm.call("Stabletree", "lookup",
                                          [root, key])
        assert look.compile_count == 3


class TestSlowpathFastpath:
    def test_slowpath_drops_to_interpreter(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                if (x > 10) { Lancet.slowpath(); return x * 100; }
                return x + 1;
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(3) == 4
        assert f(20) == 2000
        assert f.deopt_count == 1
        # The slow branch compiles to a bare deopt, not the multiply.
        assert "100" not in f.source

    def test_fastpath_recompiles_continuation(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                if (x > 10) { Lancet.fastpath(); return x * 100; }
                return x + 1;
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(3) == 4
        assert f(20) == 2000       # via on-the-fly compilation of the rest
        assert "_osr" in f.source

    def test_safeint_pattern(self):
        """The paper's overflow-safe integers: compiled code handles only
        machine-size ints; overflow deoptimizes."""
        j = load('''
            def safeAdd(a, b) {
              var r = a + b;
              if (r > 2147483647) { Lancet.slowpath(); return r; }
              if (r < -2147483648) { Lancet.slowpath(); return r; }
              return r;
            }
            def make() {
              return Lancet.compile(fun(a, b) => safeAdd(a, b));
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(1, 2) == 3
        assert f.deopt_count == 0
        assert f(2**31 - 1, 5) == 2**31 + 4    # overflow -> interpreter
        assert f.deopt_count == 1


class TestSpeculationTelemetry:
    SRC = TestSpeculate.SRC

    def test_guard_install_counted(self):
        j = load(self.SRC)
        j.vm.call("Main", "make")
        stats = j.stats()
        assert stats["guards_installed"] >= 1
        assert stats["guard_failures"] == 0
        assert stats["deopts"] == 0

    def test_guard_failure_and_deopt_counted(self):
        j = load(self.SRC)
        f = j.vm.call("Main", "make")
        assert f(200) == -200          # guard fails -> deopt
        assert f(300) == -300
        stats = j.stats()
        assert stats["deopts"] == 2
        assert stats["guard_failures"] == 2

    def test_slowpath_deopt_not_a_guard_failure(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                if (x > 10) { Lancet.slowpath(); return x * 100; }
                return x + 1;
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(20) == 2000
        stats = j.stats()
        assert stats["deopts"] == 1
        assert stats["guard_failures"] == 0    # explicit slowpath, no guard
        assert stats["deopt_sites"] >= 1

    def test_deopt_events_traced(self):
        j = load(self.SRC)
        j.telemetry.enable_trace()
        f = j.vm.call("Main", "make")
        f(5)
        assert j.telemetry.events("deopt") == []
        f(200)
        events = j.telemetry.events("deopt")
        assert len(events) == 1
        assert events[0].data["reason"] == "guard"
        installs = j.telemetry.events("guard.install")
        assert len(installs) >= 1

    def test_stable_invalidation_counted(self):
        j = load(TestStable.SRC)
        c = j.vm.new_object("Config", [7])
        f = j.vm.call("Main", "make", [c])
        f(0)
        c.put("limit", 9)
        f(1)
        stats = j.stats()
        assert stats["invalidations"] >= 1
        assert stats["deopts"] >= 1

    def test_osr_compile_counted(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                if (x > 10) { Lancet.fastpath(); return x * 100; }
                return x + 1;
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(20) == 2000
        assert j.stats()["osr_compiles"] == 1


class TestLikely:
    def test_statically_false_warns(self):
        j = load('''
            def make() {
              return Lancet.compile(fun(x) {
                if (Lancet.likely(false)) { return 1; }
                return x;
              });
            }
        ''')
        f = j.vm.call("Main", "make")
        assert f(3) == 3
        assert any("likely" in w for w in f.warnings)
