"""Property-based differential testing: for randomly generated MiniJ
programs, the JIT-compiled function must be observationally equal to the
interpreter (same result, same printed output, same guest errors).

This is the strongest end-to-end invariant in the suite: it exercises the
frontend, the interpreter, the staged interpreter (folding, merging,
widening), codegen, and the shared operator semantics all at once.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CompileOptions, Lancet
from repro.errors import GuestError

NODE = shutil.which("node")


# -- structured program generator ---------------------------------------------
# Programs are generated as (source, free variables used). Loops are always
# canonical counting loops, so every program terminates.

VARS = ["a", "b", "t0", "t1", "t2"]


@st.composite
def int_expr(draw, depth=0, env=("a", "b")):
    if depth >= 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 6))
    if choice == 0:
        return str(draw(st.integers(-9, 9)))
    if choice == 1:
        return draw(st.sampled_from(list(env)))
    lhs = draw(int_expr(depth=depth + 1, env=env))
    rhs = draw(int_expr(depth=depth + 1, env=env))
    if choice <= 4:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return "(%s %s %s)" % (lhs, op, rhs)
    if choice == 5:
        # Division/modulo by a guaranteed-nonzero constant.
        k = draw(st.integers(1, 7)) * draw(st.sampled_from([1, -1]))
        op = draw(st.sampled_from(["/", "%"]))
        return "(%s %s %d)" % (lhs, op, k)
    cond = draw(bool_expr(depth=depth + 1, env=env))
    # Branchy value via Math.min/max to stay an expression.
    return "Math.max(%s, (%s) * (0 - 1))" % (lhs, rhs) if draw(st.booleans()) \
        else "(%s + %s)" % (lhs, cond_to_int(cond))


def cond_to_int(cond):
    # booleans participate in arithmetic like ints would be messy; gate it
    return "0"


@st.composite
def bool_expr(draw, depth=0, env=("a", "b")):
    lhs = draw(int_expr(depth=depth + 1, env=env))
    rhs = draw(int_expr(depth=depth + 1, env=env))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    base = "(%s %s %s)" % (lhs, op, rhs)
    if depth < 2 and draw(st.integers(0, 3)) == 0:
        other = draw(bool_expr(depth=depth + 1, env=env))
        join = draw(st.sampled_from(["&&", "||"]))
        return "(%s %s %s)" % (base, join, other)
    if depth < 2 and draw(st.integers(0, 5)) == 0:
        return "(!%s)" % base
    return base


@st.composite
def stmt_block(draw, depth, env):
    stmts = []
    n = draw(st.integers(1, 3))
    env = list(env)
    for __ in range(n):
        kind = draw(st.integers(0, 5 if depth < 2 else 3))
        if kind == 0:           # new local
            name = "t%d" % len([v for v in env if v.startswith("t")])
            if name in env:
                kind = 1
            else:
                stmts.append("var %s = %s;"
                             % (name, draw(int_expr(env=tuple(env)))))
                env.append(name)
                continue
        if kind == 1:           # assignment
            target = draw(st.sampled_from(env))
            stmts.append("%s = %s;" % (target,
                                       draw(int_expr(env=tuple(env)))))
        elif kind == 2:         # print
            stmts.append("println(%s);" % draw(int_expr(env=tuple(env))))
        elif kind == 3:         # accumulate via arithmetic
            target = draw(st.sampled_from(env))
            stmts.append("%s = %s + %s;"
                         % (target, target, draw(int_expr(env=tuple(env)))))
        elif kind == 4:         # if/else
            cond = draw(bool_expr(env=tuple(env)))
            then = draw(stmt_block(depth + 1, tuple(env)))
            orelse = draw(stmt_block(depth + 1, tuple(env)))
            stmts.append("if (%s) { %s } else { %s }"
                         % (cond, " ".join(then), " ".join(orelse)))
        else:                   # bounded counting loop
            bound = draw(st.integers(1, 6))
            ctr = "i%d" % depth
            body = draw(stmt_block(depth + 1, tuple(env)))
            stmts.append(
                "var %s = 0; while (%s < %d) { %s %s = %s + 1; }"
                % (ctr, ctr, bound, " ".join(body), ctr, ctr))
    return stmts


@st.composite
def guest_program(draw):
    body = draw(stmt_block(0, ("a", "b")))
    ret = draw(int_expr(env=("a", "b")))
    return "def f(a, b) { %s return %s; }" % (" ".join(body), ret)


def assert_compiled_equals_interpreted(jit, source, a, b):
    """The interpreter is the oracle: the compiled ``f(a, b)`` must raise
    the same guest error type (or none), return the same result and print
    the same output."""
    interp_err = comp_err = None
    interp_result = comp_result = None
    try:
        interp_result = jit.vm.call("Main", "f", [a, b])
    except GuestError as exc:
        interp_err = type(exc)
    interp_out = jit.vm.output()
    jit.vm.clear_output()

    compiled = jit.compile_function("Main", "f")
    try:
        comp_result = compiled(a, b)
    except GuestError as exc:
        comp_err = type(exc)
    comp_out = jit.vm.output()

    assert interp_err == comp_err, source
    assert interp_result == comp_result, source
    assert interp_out == comp_out, source


class TestDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(guest_program(), st.integers(-20, 20), st.integers(-20, 20))
    def test_compiled_equals_interpreted(self, source, a, b):
        jit = Lancet()
        jit.load(source)
        assert_compiled_equals_interpreted(jit, source, a, b)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(guest_program(), st.integers(-10, 10), st.integers(-10, 10))
    def test_compiled_equals_interpreted_no_inlining(self, source, a, b):
        """Same property with inlining disabled (residual-call paths)."""
        jit = Lancet(options=CompileOptions(inline_policy="never"))
        jit.load(source)
        assert_compiled_equals_interpreted(jit, source, a, b)


# Option variants that must not change observable behaviour: inlining
# policies, loop-unroll budget clamped, unit cache off, partial-evaluation
# aggressiveness dialed down, fusion off, analysis-powered optimization
# passes off (and one at a time).
NO_OPT = CompileOptions(opt_gvn=False, opt_licm=False,
                        opt_scalar_replace=False, opt_range_guards=False)

OPTION_VARIANTS = [
    CompileOptions(inline_policy="never"),
    CompileOptions(inline_policy="always"),
    CompileOptions(unroll_limit=1),
    CompileOptions(unit_cache=False),
    CompileOptions(delite_fusion=False, fold_val_fields=False),
    CompileOptions(assume_static_arrays=False, speculate_stable=False),
    NO_OPT,
    CompileOptions(opt_gvn=False),
    CompileOptions(opt_licm=False),
    CompileOptions(opt_scalar_replace=False),
    CompileOptions(opt_range_guards=False),
]


class TestOptionMatrix:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(guest_program(), st.integers(-10, 10), st.integers(-10, 10))
    def test_option_variants_equal_interpreter(self, source, a, b):
        """The interpreter is the oracle: every CompileOptions variant must
        produce the same result and the same printed output."""
        jit = Lancet()
        jit.load(source)
        expected = jit.vm.call("Main", "f", [a, b])
        expected_out = jit.vm.output()
        jit.vm.clear_output()
        for opts in OPTION_VARIANTS:
            compiled = jit.compile_function("Main", "f", options=opts)
            got = compiled(a, b)
            got_out = jit.vm.output()
            jit.vm.clear_output()
            assert got == expected, (source, opts)
            assert got_out == expected_out, (source, opts)


# -- trace-tier differential ---------------------------------------------------


def trace_lancet(source, **knobs):
    knobs.setdefault("trace_threshold", 4)
    knobs.setdefault("bridge_threshold", 3)
    j = Lancet(options=CompileOptions(trace_tier=True, verify_ir=True,
                                      **knobs))
    j.load(source)
    return j


class TestTraceDifferential:
    """Tier-T leg (ISSUE 6): interpreted, method-compiled, and
    trace-compiled runs of the same random loopy program must agree.
    The trace jit is called repeatedly with low thresholds so recording,
    trace entry, side exits, and bridge stitching all happen mid-run."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(guest_program(), st.integers(-20, 20), st.integers(-20, 20))
    def test_trace_tier_equals_interpreted_and_compiled(self, source, a, b):
        oracle = Lancet()
        oracle.load(source)
        interp_err = interp_result = None
        try:
            interp_result = oracle.vm.call("Main", "f", [a, b])
        except GuestError as exc:
            interp_err = type(exc)
        interp_out = oracle.vm.output()
        oracle.vm.clear_output()
        expected = (interp_err, interp_result, interp_out)

        comp_err = comp_result = None
        compiled = oracle.compile_function("Main", "f")
        try:
            comp_result = compiled(a, b)
        except GuestError as exc:
            comp_err = type(exc)
        assert (comp_err, comp_result, oracle.vm.output()) == expected, \
            source

        traced = trace_lancet(source)
        for _ in range(6):
            err = result = None
            try:
                result = traced.vm.call("Main", "f", [a, b])
            except GuestError as exc:
                err = type(exc)
            out = traced.vm.output()
            traced.vm.clear_output()
            assert (err, result, out) == expected, source

    # Deterministic programs engineered to hit guard exits mid-loop: a
    # branch that flips partway through, plus a modulus branch that
    # alternates, so the recorded speculation fails while the trace is
    # live (and again after bridges stitch in).
    GUARDY_SRC = '''
        def f(a, b) {
          var acc = 0;
          var i = 0;
          while (i < 60) {
            if (i < a) { acc = acc + (i * b); }
            else { acc = acc - i; }
            if ((i % 7) == 3) { acc = acc + 1; }
            i = i + 1;
          }
          return acc;
        }
    '''

    def test_engineered_guard_exits_agree(self):
        for a, b in [(10, 3), (30, -2), (59, 5), (0, 4)]:
            oracle = Lancet()
            oracle.load(self.GUARDY_SRC)
            expected = oracle.vm.call("Main", "f", [a, b])

            traced = trace_lancet(self.GUARDY_SRC, trace_threshold=5)
            for _ in range(4):
                assert traced.vm.call("Main", "f", [a, b]) == expected, \
                    (a, b)
            stats = traced.stats()["traces"]
            assert stats["compiles"] >= 1, (a, b)
            assert stats["exits"] >= 1, (a, b)


# -- baseline-tier differential ------------------------------------------------


class TestBaselineDifferential:
    """Baseline leg (ISSUE 8): the template-compiled Tier-1 unit must be
    observationally equal to the interpreter and the staged compile —
    same result, same printed output, same guest errors. The baseline
    shares the runtime helpers with the interpreter but nothing with the
    staged pipeline, so this leg catches template/assembler bugs the
    staged differential cannot."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(guest_program(), st.integers(-20, 20), st.integers(-20, 20))
    def test_baseline_tier1_equals_interpreted_and_staged(self, source,
                                                          a, b):
        from repro.baseline import baseline_supported
        if not baseline_supported():
            pytest.skip("baseline templates target CPython 3.11")
        from repro.pipeline import TIER1, tier_options

        oracle = Lancet()
        oracle.load(source)
        interp_err = interp_result = None
        try:
            interp_result = oracle.vm.call("Main", "f", [a, b])
        except GuestError as exc:
            interp_err = type(exc)
        interp_out = oracle.vm.output()
        oracle.vm.clear_output()
        expected = (interp_err, interp_result, interp_out)

        jit = Lancet()
        jit.load(source)
        quick = jit.compile_function(
            "Main", "f", options=tier_options(jit.options, TIER1))
        assert getattr(quick, "kind", None) == "baseline", source
        for _ in range(2):              # second run reuses the code object
            err = result = None
            try:
                result = quick(a, b)
            except GuestError as exc:
                err = type(exc)
            out = jit.vm.output()
            jit.vm.clear_output()
            assert (err, result, out) == expected, source

        staged_err = staged_result = None
        staged = oracle.compile_function("Main", "f")
        try:
            staged_result = staged(a, b)
        except GuestError as exc:
            staged_err = type(exc)
        assert (staged_err, staged_result, oracle.vm.output()) == expected, \
            source


# -- JS-backend differential ---------------------------------------------------
# A magnitude-bounded program generator: every variable assignment is
# reduced mod 997 and expression depth is capped, so all intermediate
# values stay far below 2^53 and JS double arithmetic is exact.

@st.composite
def js_int_expr(draw, depth=0, env=("a", "b")):
    if depth >= 2:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 5))
    if choice == 0:
        return str(draw(st.integers(-9, 9)))
    if choice == 1:
        return draw(st.sampled_from(list(env)))
    lhs = draw(js_int_expr(depth=depth + 1, env=env))
    rhs = draw(js_int_expr(depth=depth + 1, env=env))
    if choice <= 3:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return "(%s %s %s)" % (lhs, op, rhs)
    if choice == 4:
        k = draw(st.integers(1, 7)) * draw(st.sampled_from([1, -1]))
        op = draw(st.sampled_from(["/", "%"]))
        return "(%s %s %d)" % (lhs, op, k)
    return "Math.max(%s, Math.min(%s, 9))" % (lhs, rhs)


@st.composite
def js_bool_expr(draw, env=("a", "b")):
    lhs = draw(js_int_expr(depth=1, env=env))
    rhs = draw(js_int_expr(depth=1, env=env))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return "(%s %s %s)" % (lhs, op, rhs)


@st.composite
def js_stmt_block(draw, depth, env):
    stmts = []
    env = list(env)
    for __ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 5 if depth < 2 else 3))
        if kind == 0 and depth == 0:
            name = "t%d" % len([v for v in env if v.startswith("t")])
            if name not in env:
                stmts.append("var %s = (%s) %% 997;"
                             % (name, draw(js_int_expr(env=tuple(env)))))
                env.append(name)
                continue
            kind = 1
        if kind in (0, 1):      # bounded assignment
            target = draw(st.sampled_from(env))
            stmts.append("%s = (%s) %% 997;"
                         % (target, draw(js_int_expr(env=tuple(env)))))
        elif kind == 2:         # print
            stmts.append("println(%s);" % draw(js_int_expr(env=tuple(env))))
        elif kind == 3:         # accumulate, bounded
            target = draw(st.sampled_from(env))
            stmts.append("%s = (%s + %s) %% 997;"
                         % (target, target, draw(js_int_expr(env=tuple(env)))))
        elif kind == 4:         # if/else
            cond = draw(js_bool_expr(env=tuple(env)))
            then = draw(js_stmt_block(depth + 1, tuple(env)))
            orelse = draw(js_stmt_block(depth + 1, tuple(env)))
            stmts.append("if (%s) { %s } else { %s }"
                         % (cond, " ".join(then), " ".join(orelse)))
        else:                   # bounded counting loop
            bound = draw(st.integers(1, 5))
            ctr = "i%d" % depth
            body = draw(js_stmt_block(depth + 1, tuple(env)))
            stmts.append(
                "var %s = 0; while (%s < %d) { %s %s = %s + 1; }"
                % (ctr, ctr, bound, " ".join(body), ctr, ctr))
    return stmts


@st.composite
def js_guest_program(draw):
    body = draw(js_stmt_block(0, ("a", "b")))
    ret = draw(js_int_expr(env=("a", "b")))
    return "def f(a, b) { %s return %s; }" % (" ".join(body), ret)


def _normalize_js_lines(text):
    # JS prints integer negative zero as "-0" (e.g. trunc-div of -1/7);
    # guest/Python semantics have a single zero.
    return [("0" if line == "-0" else line) for line in text.splitlines()]


@pytest.mark.skipif(NODE is None, reason="node interpreter not available")
class TestJsDifferential:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(js_guest_program(), st.integers(-20, 20), st.integers(-20, 20))
    def test_js_backend_equals_interpreted(self, source, a, b):
        from repro.backends.javascript import cross_compile_js
        jit = Lancet()
        jit.load(source)
        expected = jit.vm.call("Main", "f", [a, b])
        expected_out = jit.vm.output()
        jit.vm.clear_output()

        js = cross_compile_js(jit, "Main", "f")
        harness = "%s\nconsole.log('RESULT:' + String(f(%d, %d)));\n" \
            % (js, a, b)
        proc = subprocess.run([NODE, "-e", harness], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, (source, proc.stderr)
        lines = _normalize_js_lines(proc.stdout)
        assert lines, (source, proc.stdout)
        assert lines[-1] == "RESULT:%s" % expected, source
        assert lines[:-1] == _normalize_js_lines(expected_out), source


# -- optimized vs unoptimized --------------------------------------------------
# The analysis-powered passes (GVN, LICM, scalar replacement, range-based
# guard pruning) must be semantics-preserving on every backend: the same
# post-pipeline IR feeds Python, JS, and SQL code generation.

class TestOptimizationDifferential:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(guest_program(), st.integers(-20, 20), st.integers(-20, 20))
    def test_optimized_equals_unoptimized_python(self, source, a, b):
        jit = Lancet()
        jit.load(source)

        def observe(options):
            err = result = None
            try:
                result = jit.compile_function("Main", "f",
                                              options=options)(a, b)
            except GuestError as exc:
                err = type(exc)
            out = jit.vm.output()
            jit.vm.clear_output()
            return err, result, out

        plain = observe(NO_OPT)
        optimized = observe(CompileOptions())
        assert optimized == plain, source

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.sampled_from(["x > 0", "x * 2 == 10 || x == 0",
                            "x >= 0 && x < 100", "x % 7 != 3",
                            "x + x > x * 2 - 1"]),
           st.integers(-20, 20))
    def test_optimized_equals_unoptimized_sql(self, body, value):
        """Both variants must render to SQL and agree as predicates (the
        mini database cannot execute SQL text, so the compiled host
        callables stand in for the rendered expression — the SQL backend
        consumes exactly the post-pipeline IR they were built from)."""
        from repro.backends.sql import predicate_to_sql

        def observe(options):
            jit = Lancet(options=options)
            jit.load("def mk() { return fun(x) => %s; }" % body,
                     module="Preds")
            closure = jit.vm.call("Preds", "mk")
            sql, compiled = predicate_to_sql(jit, closure, "col")
            return sql, compiled(value)

        plain_sql, plain = observe(NO_OPT)
        opt_sql, optimized = observe(CompileOptions())
        assert plain_sql and opt_sql
        assert optimized == plain, body

    @pytest.mark.skipif(NODE is None, reason="node interpreter not available")
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(js_guest_program(), st.integers(-20, 20), st.integers(-20, 20))
    def test_optimized_equals_unoptimized_js(self, source, a, b):
        from repro.backends.javascript import cross_compile_js

        def observe(options):
            jit = Lancet(options=options)
            jit.load(source)
            js = cross_compile_js(jit, "Main", "f")
            harness = "%s\nconsole.log('RESULT:' + String(f(%d, %d)));\n" \
                % (js, a, b)
            proc = subprocess.run([NODE, "-e", harness],
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, (source, proc.stderr)
            return _normalize_js_lines(proc.stdout)

        assert observe(CompileOptions()) == observe(NO_OPT), source
