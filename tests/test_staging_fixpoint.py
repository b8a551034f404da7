"""How many passes staging takes to reach its fixpoint, and what it keeps.

The worklist pops blocks in reverse postorder, so a forward join is
decided once, when every predecessor that reaches it has been staged:
only a loop header whose entry state moves on a back edge restarts the
unit. Each test also checks the compiled result against the interpreter.
"""

import pytest

from repro import CompileOptions
from repro.compiler.stagedinterp import StagedInterpreter
from tests.conftest import load

DIAMOND = '''
    def f(x) {
      var y = 0;
      if (x > 3) { y = x * 2; } else { y = x - 1; }
      if (y > 5) { y = y + 100; }
      return y;
    }
'''

COUNTED = '''
    def f(n, s) {
      var acc = s;
      var i = 0;
      while (i < n) { acc = acc + i; i = i + 1; }
      return acc;
    }
'''

# The branch folds on `mode`, so only one predecessor reaches the join
# after it, and the point stays virtual across that join. (Compiled with
# the scalar-replacement pass off, so the IR shows what staging kept.)
SUNK = '''
    class Pt { var x; var y; def init(x, y) { this.x = x; this.y = y; } }
    def f(a) {
      var mode = 1;
      var p = new Pt(a, a + 1);
      if (mode == 1) { p.x = a * 2; } else { p.y = a * 3; }
      return p.x + p.y;
    }
'''

NESTED = '''
    def f(n) {
      var acc = 0;
      var i = 0;
      while (i < n) {
        var j = 0;
        while (j < i) {
          if ((i + j) % 3 == 0) { acc = acc + j; } else { acc = acc - 1; }
          j = j + 1;
        }
        i = i + 1;
      }
      return acc;
    }
'''

INLINED_LOOP = '''
    def sum(n) {
      var s = 0;
      var k = 0;
      while (k < n) { s = s + k; k = k + 1; }
      return s;
    }
    def f(n) {
      var t = 0;
      if (n > 2) { t = sum(n); } else { t = sum(n + 5); }
      return t + sum(3);
    }
'''

LOOKUP = '''
    class Node {
      var key; var left; var right;
      def init(k) { this.key = k; this.left = null; this.right = null; }
    }
    def insert(root, k) {
      var n = new Node(k);
      if (root == null) { return n; }
      var cur = root;
      while (true) {
        if (k < cur.key) {
          if (cur.left == null) { cur.left = n; return root; }
          cur = cur.left;
        } else {
          if (cur.right == null) { cur.right = n; return root; }
          cur = cur.right;
        }
      }
    }
    def lookupGen(root) {
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


def compile_traced(source, fn="f", **options):
    jit = load(source, options=CompileOptions(**options))
    jit.telemetry.enable_trace()
    return jit, jit.compile_function("Main", fn)


def staging_events(jit):
    return [e.data for e in jit.telemetry.events("compile.phase")
            if e.data.get("phase") == "staging"]


def allocations(compiled):
    return [s for b in compiled.ir.blocks.values() for s in b.stmts
            if s.op == "new"]


def check(jit, compiled, *arg_tuples):
    for args in arg_tuples:
        assert compiled(*args) == jit.vm.call("Main", "f", list(args))


def test_diamonds_stage_in_one_pass():
    jit, compiled = compile_traced(DIAMOND)
    check(jit, compiled, (0,), (3,), (4,), (10,))
    assert compiled.report.passes == 1
    (event,) = staging_events(jit)
    assert event["changed"] is False and event["cause"] is None
    assert event["generated"] == event["kept"]


def test_counted_loop_stages_in_two_passes():
    jit, compiled = compile_traced(COUNTED)
    check(jit, compiled, (0, 5), (1, 5), (10, 7))
    assert compiled.report.passes <= 2
    first, last = staging_events(jit)
    assert first["cause"] == "loop_header" and first["kept"] == 0
    assert last["cause"] is None
    assert last["kept"] < last["generated"] <= 2 * last["kept"]


def test_join_with_one_live_predecessor_keeps_allocation_sunk():
    jit, compiled = compile_traced(SUNK, opt_scalar_replace=False)
    check(jit, compiled, (1,), (-4,))
    assert compiled.report.passes == 1
    assert not allocations(compiled)


def test_forcing_every_join_to_merge_materializes(monkeypatch):
    """The mutation the sinking test guards against: a join made a merge
    block although one predecessor reaches it must materialize ``p``."""
    decide = StagedInterpreter._decide

    def always_merge(self, info):
        info.mode = "merge"
        return decide(self, info)

    monkeypatch.setattr(StagedInterpreter, "_decide", always_merge)
    jit, compiled = compile_traced(SUNK, opt_scalar_replace=False)
    check(jit, compiled, (1,), (-4,))
    assert allocations(compiled)


@pytest.mark.parametrize("source", [NESTED, INLINED_LOOP],
                         ids=["nested-loops", "inlined-loop"])
def test_loops_in_loops_and_callees(source):
    jit, compiled = compile_traced(source)
    check(jit, compiled, (0,), (1,), (2,), (3,), (7,))
    events = staging_events(jit)
    assert len(events) == compiled.report.passes
    # Only loop headers restart: every forward join is decided once.
    assert all(e["cause"] == "loop_header" for e in events[:-1])
    assert events[-1]["cause"] is None


def test_unrolled_lookup_clones_per_node_in_one_pass():
    jit = load(LOOKUP)
    for field in ("key", "left", "right"):
        jit.mark_stable("Node", field)
    keys = [10, 5, 15, 3, 7, 12]
    root = None
    for k in keys:
        root = jit.vm.call("Main", "insert", [root, k])
    look = jit.vm.call("Main", "lookupGen", [root])
    for k in keys + [0, 4, 11, 20]:
        assert look(k) == (k in keys)
    assert look.report.passes == 1
    # At least one loop-header clone per node below the root.
    assert look.report.unroll_clones >= len(keys) - 1
