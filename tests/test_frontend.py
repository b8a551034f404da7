"""MiniJ frontend: lexer, parser, compiler, lambda lifting."""

import glob
import importlib.util
import os

import pytest

from repro.apps import app_source
from repro.errors import MiniJCompileError, MiniJSyntaxError
from repro.frontend import ast, parse
from repro.frontend.compiler import compile_source
from repro.frontend.lexer import tokenize
from repro.interp import Interpreter


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The example programs, the bundled apps and the warmup benchmark's
#: generated corpus: every token must sit where the lexer says.
_SOURCES = (sorted(os.path.relpath(p, _ROOT) for p in
                   glob.glob(os.path.join(_ROOT, "examples", "*.mj")))
            + ["app:" + os.path.basename(p)[:-3] for p in sorted(glob.glob(
                os.path.join(_ROOT, "src", "repro", "apps", "*.mj")))]
            + ["corpus:0"])


def _source(name):
    if name.startswith("app:"):
        return app_source(name[4:])
    if name.startswith("corpus:"):
        path = os.path.join(_ROOT, "benchmarks", "e2e", "corpus.py")
        spec = importlib.util.spec_from_file_location("corpus", path)
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        return corpus.generate(int(name[7:])).source
    with open(os.path.join(_ROOT, name)) as f:
        return f.read()


def run(source, fn="main", args=()):
    vm = Interpreter()
    vm.load_source(source)
    return vm.call("Main", fn, list(args)), vm


class TestLexer:
    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 10")
        assert [t.value for t in toks[:-1]] == [1, 2.5, 1000.0, 10]
        assert toks[0].kind == "int"
        assert toks[1].kind == "float"

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\"c\\d"')
        assert toks[0].value == 'a\nb"c\\d'

    def test_comments(self):
        toks = tokenize("1 // line\n/* block\nstill */ 2")
        assert [t.value for t in toks[:-1]] == [1, 2]

    def test_keywords_vs_names(self):
        toks = tokenize("class classy")
        assert toks[0].kind == "kw"
        assert toks[1].kind == "name"

    def test_two_char_ops(self):
        toks = tokenize("== != <= >= && || =>")
        assert [t.value for t in toks[:-1]] == \
            ["==", "!=", "<=", ">=", "&&", "||", "=>"]

    def test_line_tracking(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_unterminated_string(self):
        with pytest.raises(MiniJSyntaxError, match="unterminated"):
            tokenize('"abc')

    def test_bad_char(self):
        with pytest.raises(MiniJSyntaxError):
            tokenize("a @ b")

    def test_columns_after_block_comments(self):
        assert [(t.line, t.col) for t in tokenize("a /* c */ b")[:2]] == \
            [(1, 1), (1, 11)]
        assert [(t.line, t.col) for t in tokenize("a /* c\nd */ b")[:2]] \
            == [(1, 1), (2, 6)]

    def test_non_ascii_digit_is_a_syntax_error(self):
        # str.isdigit accepts superscripts that int() rejects.
        with pytest.raises(MiniJSyntaxError, match="unexpected character"):
            tokenize("x = \u00b2;")

    @pytest.mark.parametrize("name", _SOURCES)
    def test_every_token_sits_at_its_position(self, name):
        source = _source(name)
        lines = source.split("\n")
        tokens = tokenize(source)
        assert tokens[-1].kind == "eof"
        for tok in tokens[:-1]:
            text = lines[tok.line - 1][tok.col - 1:]
            if tok.kind == "str":
                assert text.startswith('"'), tok
            elif tok.kind == "float":
                assert text[0].isdigit(), tok
            else:
                assert text.startswith(str(tok.value)), tok


class TestParser:
    def test_class_structure(self):
        p = parse("class A extends B { var x; val y, z; def m(a) { } }")
        cls = p.classes[0]
        assert cls.name == "A"
        assert cls.super_name == "B"
        assert cls.fields == [("x", False), ("y", True), ("z", True)]
        assert cls.methods[0].name == "m"

    def test_precedence(self):
        p = parse("def f() { return 1 + 2 * 3 < 7 && true; }")
        e = p.functions[0].body[0].value
        assert isinstance(e, ast.BinOp) and e.op == "&&"
        lhs = e.lhs
        assert lhs.op == "<"
        assert lhs.lhs.op == "+"
        assert lhs.lhs.rhs.op == "*"

    def test_else_if_chain(self):
        p = parse("def f(x) { if (x) { } else if (x) { } else { } }")
        stmt = p.functions[0].body[0]
        assert isinstance(stmt.orelse[0], ast.If)

    def test_lambda_forms(self):
        p = parse("def f() { var g = fun(x) => x; var h = fun(x, y) { return x; } ; }")
        g = p.functions[0].body[0].init
        assert isinstance(g, ast.Lambda)
        assert isinstance(g.body[0], ast.Return)

    def test_call_chains(self):
        p = parse("def f(o) { return o.m(1)[2].g; }")
        e = p.functions[0].body[0].value
        assert isinstance(e, ast.FieldAccess)
        assert isinstance(e.recv, ast.Index)
        assert isinstance(e.recv.arr, ast.MethodCall)

    def test_closure_value_call(self):
        p = parse("def f(o) { return o.get()(3); }")
        e = p.functions[0].body[0].value
        assert isinstance(e, ast.MethodCall) and e.name == "apply"

    def test_invalid_assignment_target(self):
        with pytest.raises(MiniJSyntaxError, match="assignment target"):
            parse("def f() { 1 + 2 = 3; }")

    def test_negative_literal_folded(self):
        p = parse("def f() { return -5; }")
        assert p.functions[0].body[0].value.value == -5

    def test_missing_semicolon(self):
        with pytest.raises(MiniJSyntaxError):
            parse("def f() { return 1 }")


class TestCompilerSemantics:
    def test_arith_and_control(self):
        result, __ = run('''
            def main() {
              var s = 0;
              var i = 0;
              while (i < 10) {
                if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
                i = i + 1;
              }
              return s;
            }
        ''')
        assert result == sum(range(0, 10, 2)) - 5

    def test_for_over_array(self):
        result, __ = run('''
            def main() {
              var total = 0;
              for (x in [1, 2, 3, 4]) { total = total + x; }
              return total;
            }
        ''')
        assert result == 10

    def test_short_circuit_and(self):
        result, __ = run('''
            def sideEffect(b) { println("hit"); return b; }
            def main() {
              if (false && sideEffect(true)) { return 1; }
              return 0;
            }
        ''')
        result, vm = run('''
            def sideEffect(b) { println("hit"); return b; }
            def main() {
              if (false && sideEffect(true)) { return 1; }
              return 0;
            }
        ''')
        assert result == 0
        assert vm.output() == ""   # rhs never evaluated

    def test_short_circuit_or(self):
        result, vm = run('''
            def sideEffect(b) { println("hit"); return b; }
            def main() {
              if (true || sideEffect(true)) { return 1; }
              return 0;
            }
        ''')
        assert result == 1
        assert vm.output() == ""

    def test_closure_captures_by_value(self):
        result, __ = run('''
            def main() {
              var x = 1;
              var f = fun() => x;
              x = 99;
              return f();
            }
        ''')
        assert result == 1   # captured at creation

    def test_nested_closures(self):
        result, __ = run('''
            def main() {
              var a = 1;
              var mk = fun(b) => fun(c) => a + b + c;
              var g = mk(10);
              return g(100);
            }
        ''')
        assert result == 111

    def test_lambda_captures_this(self):
        result, __ = run('''
            class C {
              var v;
              def init(v) { this.v = v; }
              def getter() { return fun() => this.v; }
            }
            def main() {
              var c = new C(42);
              var g = c.getter();
              return g();
            }
        ''')
        assert result == 42

    def test_sibling_method_call(self):
        result, __ = run('''
            class C {
              def twice(x) { return x * 2; }
              def quad(x) { return twice(twice(x)); }
            }
            def main() { return new C().quad(3); }
        ''')
        assert result == 12

    def test_assign_to_captured_rejected(self):
        with pytest.raises(MiniJCompileError, match="captured"):
            compile_source("def f() { var x = 1; var g = fun() { x = 2; }; }")

    def test_unknown_variable_rejected(self):
        with pytest.raises(MiniJCompileError, match="unknown variable"):
            compile_source("def f() { return nope; }")

    def test_unknown_function_rejected(self):
        with pytest.raises(MiniJCompileError, match="unknown function"):
            compile_source("def f() { return nope(); }")

    def test_val_field_assignment_outside_init_rejected(self):
        with pytest.raises(MiniJCompileError, match="val field"):
            compile_source('''
                class C { val x; def init() { this.x = 1; }
                          def bad() { this.x = 2; } }
            ''')

    def test_val_field_assignable_in_init(self):
        compile_source("class C { val x; def init() { this.x = 1; } }")

    def test_this_in_static_rejected(self):
        with pytest.raises(MiniJCompileError, match="static"):
            compile_source("def f() { return this; }")

    def test_forward_reference(self):
        result, __ = run('''
            def main() { return later(); }
            def later() { return 7; }
        ''')
        assert result == 7

    def test_block_scoping_shadowing(self):
        result, __ = run('''
            def main() {
              var x = 1;
              if (true) { var x = 2; }
              return x;
            }
        ''')
        assert result == 1

    def test_string_concat_chain(self):
        result, __ = run('def main() { return "a" + 1 + "b" + true; }')
        assert result == "a1btrue"

    def test_static_call_other_class(self):
        result, __ = run('''
            class Util { def helper() { return 5; } }
            def main() { return new Util().helper() + Math.min(1, 2); }
        ''')
        assert result == 6

    def test_lancet_identity_semantics_interpreted(self):
        # Without a JIT attached, Lancet.* are identities.
        result, __ = run('''
            def main() {
              var n = Lancet.freeze(2 + 3);
              var m = Lancet.unroll([1, 2])[0];
              var k = 0;
              if (Lancet.speculate(n == 5)) { k = 1; }
              return n + m + k;
            }
        ''')
        assert result == 7
