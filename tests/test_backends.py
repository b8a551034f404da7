"""Cross-compilation backends (paper 3.5): JavaScript and SQL."""

import shutil
import subprocess

import pytest

from repro import Lancet
from repro.backends.javascript import cross_compile_js
from repro.backends.sql import (Table, nested_lookup_grouped,
                                nested_lookup_naive, predicate_to_sql)
from repro.backends.sqldb import MiniDB
from repro.errors import CompilationError


class TestJavaScript:
    def test_arithmetic_function(self, jit):
        jit.load("def poly(x) { return x * x + 2 * x + 1; }")
        js = cross_compile_js(jit, "Main", "poly")
        assert "function poly(a1)" in js
        assert "a1 * a1" in js or "(a1 * a1)" in js.replace("var ", "")
        assert "return" in js

    def test_loop_compiles_to_structured_while(self, jit):
        jit.load('''
            def total(n) {
              var s = 0; var i = 0;
              while (i < n) { s = s + i; i = i + 1; }
              return s;
            }
        ''')
        js = cross_compile_js(jit, "Main", "total")
        assert "while (true) {" in js
        assert "break;" in js
        assert "__L" not in js

    @pytest.mark.skipif(shutil.which("node") is None,
                        reason="node interpreter not available")
    def test_loop_swap_keeps_parallel_phi_assigns(self, jit):
        jit.load('''
            def swap(n) {
              var a = 1; var b = 2; var i = 0;
              while (i < n) { var t = a; a = b; b = t; i = i + 1; }
              return a * 10 + b;
            }
        ''')
        js = cross_compile_js(jit, "Main", "swap")
        proc = subprocess.run(["node", "-e", js + "\nconsole.log(swap(3));"],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == str(jit.vm.call("Main", "swap", [3]))

    @pytest.mark.skipif(shutil.which("node") is None,
                        reason="node interpreter not available")
    def test_fallback_dispatch_is_still_correct(self, jit, monkeypatch):
        """A unit the structurer refuses renders as ``switch (__L)``
        and computes what the interpreter does."""
        import repro.backends.javascript as javascript
        monkeypatch.setattr(javascript, "structure",
                            lambda blocks, entry: (None, "forced"))
        jit.load('''
            def swap(n) {
              var a = 1; var b = 2; var i = 0;
              while (i < n) {
                if (i % 2 == 0) { var t = a; a = b; b = t; }
                else { a = a + b; }
                i = i + 1;
              }
              return a * 10 + b;
            }
        ''')
        js = cross_compile_js(jit, "Main", "swap")
        assert "switch (__L)" in js
        proc = subprocess.run(
            ["node", "-e", js + "\nconsole.log([0, 1, 4, 7].map(swap)"
                                ".join(' '));"],
            capture_output=True, text=True, timeout=60)
        want = " ".join(str(jit.vm.call("Main", "swap", [n]))
                        for n in (0, 1, 4, 7))
        assert proc.stdout.strip() == want, proc.stderr

    def test_int_division_semantics_preserved(self, jit):
        jit.load("def half(a, b) { return a / b; }")
        js = cross_compile_js(jit, "Main", "half")
        assert "__div" in js            # trunc-toward-zero helper

    def test_dom_style_method_calls(self, jit):
        """The snowflake pattern: methods on an unknown receiver become JS
        method calls (the paper's DOM macro behaviour)."""
        jit.load('''
            def leg(c, n) {
              c.moveTo(0, 0);
              c.lineTo(n, n);
            }
            def snowflake(c, n) {
              c.save();
              c.translate(1, 2);
              leg(c, n);
              c.rotate(0 - 120);
              c.restore();
            }
        ''')
        js = cross_compile_js(jit, "Main", "snowflake")
        for call in ("a1.save()", "a1.translate(1, 2)", "a1.moveTo(0, 0)",
                     "a1.rotate", "a1.restore()"):
            assert call in js, js
        # leg() was inlined: bytecode is available for all functions.
        assert "leg(" not in js

    def test_println_becomes_console_log(self, jit):
        jit.load('def hello(x) { println("v=" + x); }')
        js = cross_compile_js(jit, "Main", "hello")
        assert "console.log" in js

    def test_heap_statics_rejected(self, jit):
        jit.load('''
            def make() {
              var arr = [1, 2, 3];
              return Lancet.compile(fun(i) => arr[i]);
            }
        ''')
        closure_src = jit.vm.call("Main", "make")
        # The compiled closure references the static array — untranslatable.
        from repro.backends.javascript import render_js
        with pytest.raises(CompilationError):
            render_js(closure_src.ir, "f")


def make_predicate(jit, body, module="Preds"):
    import itertools
    for i in itertools.count():
        name = "%s%d" % (module, i)
        if name not in jit.vm.linker.classes:
            jit.load("def mk() { return %s; }" % body, module=name)
            return jit.vm.call(name, "mk")


class TestSQLPredicates:
    def test_simple_comparison(self, jit):
        closure = make_predicate(jit, "fun(x) => x > 0")
        sql, compiled = predicate_to_sql(jit, closure, "price")
        assert sql == "(price > 0)"
        assert compiled(5) is True and compiled(-1) is False

    def test_external_function_is_inlined(self, jit):
        """The paper's headline case: the predicate calls a function
        defined elsewhere — bytecode lifting handles it."""
        jit.load("def p(x) { return x < 100; }", module="Lib")
        closure = make_predicate(jit, "fun(x) => x > 0 && Lib.p(x)")
        sql, compiled = predicate_to_sql(jit, closure, "price")
        assert "price > 0" in sql and "price < 100" in sql
        assert "AND" in sql
        assert compiled(50) is True
        assert compiled(500) is False

    def test_or_and_arithmetic(self, jit):
        closure = make_predicate(jit, "fun(x) => x * 2 == 10 || x == 0")
        sql, __ = predicate_to_sql(jit, closure, "qty")
        assert "OR" in sql
        assert "(qty * 2)" in sql


class TestQueries:
    def setup_db(self, jit):
        db = MiniDB()
        db.create_table("t_item", [
            {"id": 1, "price": 10, "name": "a"},
            {"id": 2, "price": -5, "name": "b"},
            {"id": 3, "price": 30, "name": "c"},
        ])
        db.create_table("t_order", [
            {"order_id": 1, "item": 1, "qty": 2},
            {"order_id": 2, "item": 1, "qty": 1},
            {"order_id": 3, "item": 3, "qty": 5},
        ])
        return db

    def test_filter_count(self, jit):
        db = self.setup_db(jit)
        items = Table(db, "t_item", jit)
        pred = make_predicate(jit, "fun(x) => x > 0")
        res = items.filter("price", pred)
        assert res.count() == 2
        assert "WHERE (price > 0)" in db.query_log[0]

    def test_scalar_reuse_single_trip(self, jit):
        """count + sum over the same query: one round-trip, not two
        (the paper's duplicate-execution problem, solved by context)."""
        db = self.setup_db(jit)
        items = Table(db, "t_item", jit)
        pred = make_predicate(jit, "fun(x) => x > 0")
        res = items.filter("price", pred)
        assert res.count() == 2
        assert res.sum("price") == 40
        assert db.trips() == 1

    def test_without_reuse_two_trips(self, jit):
        db = self.setup_db(jit)
        items = Table(db, "t_item", jit)
        pred = make_predicate(jit, "fun(x) => x > 0")
        res = items.filter("price", pred)
        res.reuse = False
        res.count()
        res.sum("price")
        assert db.trips() == 2

    def test_query_avalanche_vs_grouped(self, jit):
        db = self.setup_db(jit)
        orders = Table(db, "t_order", jit)
        keys = [1, 2, 3]

        naive = nested_lookup_naive(keys, orders, "item")
        naive_trips = db.trips()
        db.reset_log()
        grouped = nested_lookup_grouped(keys, orders, "item")
        grouped_trips = db.trips()

        assert naive_trips == len(keys)      # the avalanche
        assert grouped_trips == 1            # single GROUP BY
        for k in keys:
            assert naive[k] == grouped[k]

    def test_chained_filters(self, jit):
        db = self.setup_db(jit)
        items = Table(db, "t_item", jit)
        p1 = make_predicate(jit, "fun(x) => x > 0")
        p2 = make_predicate(jit, "fun(i) => i != 3")
        res = items.filter("price", p1).filter("id", p2)
        assert res.count() == 1
        assert "AND" in res.to_sql()
