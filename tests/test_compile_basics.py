"""Explicit compilation: correctness (differential vs interpreter) and
optimization assertions on the generated code."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import CompileOptions, Lancet
from tests.conftest import load, run_both


class TestCorrectness:
    def test_arith(self):
        assert run_both("def f(x, y) { return (x + y) * (x - y) % 7; }",
                        "f", [10, 3]) == (13 * 7) % 7

    def test_branches(self):
        src = "def f(x) { if (x > 0) { return x; } else { return 0 - x; } }"
        assert run_both(src, "f", [5]) == 5
        assert run_both(src, "f", [-5]) == 5

    def test_loops(self):
        src = '''
            def f(n) {
              var s = 0; var i = 0;
              while (i < n) { s = s + i * i; i = i + 1; }
              return s;
            }
        '''
        assert run_both(src, "f", [10]) == sum(i * i for i in range(10))

    def test_nested_loops(self):
        src = '''
            def f(n) {
              var total = 0;
              var i = 0;
              while (i < n) {
                var j = 0;
                while (j < i) { total = total + 1; j = j + 1; }
                i = i + 1;
              }
              return total;
            }
        '''
        assert run_both(src, "f", [6]) == 15

    def test_objects_and_methods(self):
        src = '''
            class Vec {
              var x; var y;
              def init(x, y) { this.x = x; this.y = y; }
              def dot(o) { return this.x * o.x + this.y * o.y; }
            }
            def f(a, b) {
              var v = new Vec(a, b);
              var w = new Vec(b, a);
              return v.dot(w);
            }
        '''
        assert run_both(src, "f", [3, 4]) == 24

    def test_arrays(self):
        src = '''
            def f(n) {
              var arr = newArray(n, 0);
              var i = 0;
              while (i < n) { arr[i] = i * 2; i = i + 1; }
              var s = 0;
              for (x in arr) { s = s + x; }
              return s;
            }
        '''
        assert run_both(src, "f", [8]) == sum(2 * i for i in range(8))

    def test_strings(self):
        src = '''
            def f(s) {
              var parts = split(s, ",");
              var out = "";
              for (p in parts) { out = out + "[" + p + "]"; }
              return out;
            }
        '''
        assert run_both(src, "f", ["a,b,c"]) == "[a][b][c]"

    def test_closure_calls(self):
        src = '''
            def f(x) {
              var add = fun(a, b) => a + b;
              return add(x, add(x, 1));
            }
        '''
        assert run_both(src, "f", [5]) == 11

    def test_early_returns(self):
        src = '''
            def f(x) {
              if (x < 0) { return -1; }
              if (x == 0) { return 0; }
              return 1;
            }
        '''
        for v in (-3, 0, 3):
            run_both(src, "f", [v])

    def test_division_semantics_match(self):
        src = "def f(a, b) { return [a / b, a % b]; }"
        assert run_both(src, "f", [-7, 2]) == [-3, -1]

    def test_float_math(self):
        src = "def f(x) { return Math.sqrt(x) + Math.exp(0.0); }"
        assert run_both(src, "f", [9.0]) == 4.0

    def test_recursion_residual_call(self):
        src = '''
            def fact(n) {
              if (n <= 1) { return 1; }
              return n * fact(n - 1);
            }
        '''
        assert run_both(src, "fact", [10]) == 3628800

    def test_mutual_recursion(self):
        src = '''
            def isEven(n) { if (n == 0) { return true; } return isOdd(n - 1); }
            def isOdd(n) { if (n == 0) { return false; } return isEven(n - 1); }
        '''
        assert run_both(src, "isEven", [9]) is False

    def test_virtual_dispatch_unknown_receiver(self):
        src = '''
            class A { def tag() { return 1; } }
            class B extends A { def tag() { return 2; } }
            def pick(flag) { if (flag) { return new A(); } return new B(); }
            def f(flag) { return pick(flag).tag(); }
        '''
        assert run_both(src, "f", [True]) == 1
        assert run_both(src, "f", [False]) == 2

    def test_guest_throw(self):
        from repro.interp.interpreter import GuestThrow
        j = load("def f(x) { if (x < 0) { throw \"neg\"; } return x; }")
        compiled = j.compile_function("Main", "f")
        assert compiled(5) == 5
        with pytest.raises(GuestThrow):
            compiled(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_property_differential_arith(self, x, y):
        src = '''
            def f(x, y) {
              var a = x * 3 - y;
              var b = 0;
              if (a > x) { b = a - x; } else { b = x - a; }
              var i = 0;
              while (i < 5) { b = b + i * y; i = i + 1; }
              return b;
            }
        '''
        run_both(src, "f", [x, y])


class TestOptimizations:
    def test_constant_folding(self):
        j = load("def f() { return 2 * 3 + 4; }")
        c = j.compile_function("Main", "f")
        assert c() == 10
        assert "return 10" in c.source

    def test_inlining_default(self):
        j = load('''
            def helper(x) { return x + 1; }
            def f(x) { return helper(helper(x)); }
        ''')
        c = j.compile_function("Main", "f")
        assert c(1) == 3
        assert "_callm" not in c.source      # fully inlined

    def test_dead_branch_elimination(self):
        j = load('''
            def f(x) {
              var debug = false;
              if (debug) { println("dbg"); }
              return x;
            }
        ''')
        c = j.compile_function("Main", "f")
        assert "println" not in c.source

    def test_cse(self):
        j = load("def f(x) { return (x * x) + (x * x); }")
        c = j.compile_function("Main", "f")
        assert c(3) == 18
        assert c.source.count("_mul") == 1

    def test_allocation_sinking(self):
        j = load('''
            class Pair { var a; var b;
              def init(a, b) { this.a = a; this.b = b; } }
            def f(x) {
              var p = new Pair(x, x + 1);
              return p.a + p.b;
            }
        ''')
        c = j.compile_function("Main", "f")
        assert c(5) == 11
        assert "_newinst" not in c.source    # Pair scalar-replaced

    def test_algebraic_simplification(self):
        j = load("def f(x) { var zero = 0; return (x + 1) * 1 + zero * x; }")
        c = j.compile_function("Main", "f")
        assert c(4) == 5

    def test_num_fastpath_in_loops(self):
        j = load('''
            def f(n) {
              var s = 0; var i = 0;
              while (i < n) { s = s + i; i = i + 1; }
              return s;
            }
        ''')
        c = j.compile_function("Main", "f")
        # After one iteration the loop vars are known numeric: raw `+`.
        assert " + " in c.source

    def test_warnings_as_errors(self):
        from repro.errors import CompilationWarningList
        j = load('''
            def f() {
              return Lancet.compile(fun(x) {
                if (Lancet.likely(false)) { return 1; }
                return x;
              });
            }
        ''', options=CompileOptions(warnings_as_errors=True))
        with pytest.raises(CompilationWarningList):
            j.vm.call("Main", "f")

    def test_compiled_faster_than_interpreter(self):
        import time
        src = '''
            def work(n) {
              var s = 0; var i = 0;
              while (i < n) { s = s + i * 3 % 7; i = i + 1; }
              return s;
            }
        '''
        # Pinned off: a trace tier armed by the environment would speed
        # up the interpreted baseline this compares against.
        j = load(src, options=CompileOptions(trace_tier=False))
        n = 20000
        t0 = time.perf_counter()
        expected = j.vm.call("Main", "work", [n])
        t_interp = time.perf_counter() - t0
        c = j.compile_function("Main", "work")
        c(n)  # warm
        t0 = time.perf_counter()
        got = c(n)
        t_comp = time.perf_counter() - t0
        assert got == expected
        assert t_comp < t_interp / 5, (t_interp, t_comp)
