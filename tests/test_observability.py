"""The observability subsystem: event traces, metrics, compile reports,
``Lancet.stats()``, and the CLI surface (--jit-stats / --trace-jit)."""

import ast
import io
import json
import os
import re

import repro.observability
from repro import CompileOptions, Lancet, Telemetry
from repro.observability import EventTrace, Metrics, load_jsonl
from tests.conftest import load

SRC = '''
    def work(x) {
      var i = 0; var s = 0;
      while (i < x) { s = s + i; i = i + 1; }
      return s;
    }
    def helper(y) { return y + 1; }
'''


class TestEventTrace:
    def test_disabled_by_default(self):
        t = EventTrace()
        assert t.record("compile.start", unit="u") is None
        assert len(t) == 0

    def test_records_in_order(self):
        t = EventTrace(enabled=True)
        t.record("a", x=1)
        t.record("b", x=2)
        events = t.events()
        assert [e.kind for e in events] == ["a", "b"]
        assert [e.seq for e in events] == [1, 2]
        assert events[0].data == {"x": 1}

    def test_ring_buffer_bounded(self):
        t = EventTrace(capacity=8, enabled=True)
        for i in range(20):
            t.record("tick", i=i)
        assert len(t) == 8
        assert t.recorded == 20
        assert t.dropped == 12
        # Oldest events dropped, newest retained.
        assert [e.data["i"] for e in t.events()] == list(range(12, 20))

    def test_kind_filters(self):
        t = EventTrace(enabled=True)
        t.record("cache.hit")
        t.record("cache.miss")
        t.record("compile.start")
        assert len(t.events("cache.hit")) == 1
        assert len(t.events("cache.")) == 2       # prefix filter
        assert len(t.events("deopt")) == 0

    def test_jsonl_round_trip(self):
        t = EventTrace(enabled=True)
        t.record("compile.start", unit="Main.f")
        t.record("compile.end", unit="Main.f", seconds=0.01)
        buf = io.StringIO()
        assert t.export_jsonl(buf) == 2
        text = buf.getvalue()
        # Every line is a self-contained JSON object.
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == 2
        events = load_jsonl(io.StringIO(text))
        assert [e.kind for e in events] == ["compile.start", "compile.end"]
        assert events[0].data == {"unit": "Main.f"}
        assert events[1].seq == 2

    def test_jsonl_to_path(self, tmp_path):
        t = EventTrace(enabled=True)
        t.record("x")
        path = tmp_path / "trace.jsonl"
        assert t.export_jsonl(str(path)) == 1
        assert load_jsonl(str(path))[0].kind == "x"


class TestCatalogue:
    def test_server_kinds_match_the_catalogue(self):
        """Every ``server.<kind>`` string the compile server and the
        Lancet facade emit is declared in the observability catalogue,
        and the catalogue declares no server kind that nothing emits."""
        root = os.path.dirname(repro.__file__)
        server_dir = os.path.join(root, "server")
        paths = [os.path.join(server_dir, name)
                 for name in sorted(os.listdir(server_dir))
                 if name.endswith(".py")]
        paths.append(os.path.join(root, "jit", "api.py"))
        emitted = set()
        for path in paths:
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read())
            emitted.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.fullmatch(r"server\.[a-z_]+", node.value))
        declared = set(re.findall(r"\bserver\.[a-z_]+",
                                  repro.observability.__doc__))
        assert emitted, "no server kinds found"
        assert sorted(emitted - declared) == []
        assert sorted(declared - emitted) == []


class TestMetrics:
    def test_counters(self):
        m = Metrics()
        assert m.get("compiles") == 0
        m.inc("compiles")
        m.inc("compiles", 2)
        assert m.get("compiles") == 3

    def test_timings(self):
        m = Metrics()
        assert m.timing("compile.total") is None
        for s in (0.5, 0.1, 0.9):
            m.observe("compile.total", s)
        t = m.timing("compile.total")
        assert t["count"] == 3
        assert t["min"] == 0.1 and t["max"] == 0.9
        assert abs(t["total"] - 1.5) < 1e-12
        assert abs(t["mean"] - 0.5) < 1e-12

    def test_snapshot_and_reset(self):
        m = Metrics()
        m.inc("a")
        m.observe("t", 1.0)
        snap = m.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["timings"]["t"]["count"] == 1
        m.reset()
        assert m.get("a") == 0 and m.timing("t") is None


class TestTelemetry:
    def test_trace_switch(self):
        tel = Telemetry()
        assert not tel.enabled
        tel.record("x")
        tel.enable_trace()
        tel.record("y")
        tel.disable_trace()
        tel.record("z")
        assert [e.kind for e in tel.events()] == ["y"]

    def test_counters_always_on(self):
        tel = Telemetry()
        tel.inc("compiles")
        assert tel.metrics.get("compiles") == 1

    def test_reset(self):
        tel = Telemetry().enable_trace()
        tel.record("x")
        tel.inc("n")
        tel.reset()
        assert tel.events() == [] and tel.metrics.get("n") == 0


class TestCompileReport:
    def test_attached_to_compiled_function(self):
        j = load(SRC)
        c = j.compile_function("Main", "work")
        r = c.report
        assert r.name == "Main.work"
        assert r.passes >= 1
        assert r.blocks >= 1
        assert r.stmts >= 1
        assert set(r.phases) >= {"staging", "codegen"}
        assert r.total_seconds > 0
        d = r.to_dict()
        assert d["name"] == "Main.work"
        assert d["total_seconds"] == r.total_seconds
        json.dumps(d)           # JSON-serializable

    def test_per_phase_wall_times(self):
        j = load(SRC)
        c = j.compile_function("Main", "work")
        for phase, seconds in c.report.phases.items():
            assert seconds >= 0, phase


class TestLancetStats:
    def test_compile_counts_and_timings(self):
        j = load(SRC)
        j.compile_function("Main", "work")
        j.compile_function("Main", "helper")
        stats = j.stats()
        assert stats["compiles"] == 2
        assert stats["compile_seconds"] > 0
        assert stats["compile_timing"]["count"] == 2
        assert "staging" in stats["phase_timings"]
        assert "codegen" in stats["phase_timings"]
        assert stats["units"] == ["Main.work", "Main.helper"]

    def test_cache_traffic_aggregated(self):
        j = load(SRC)
        j.compile_function("Main", "work")
        j.compile_function("Main", "work")
        stats = j.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["compiles"] == 1

    def test_interp_invocations_counted(self):
        j = load(SRC)
        j.vm.call("Main", "work", [3])
        j.vm.call("Main", "helper", [1])
        assert j.stats()["interp_invocations"] >= 2

    def test_stats_json_serializable(self):
        j = load(SRC)
        j.compile_function("Main", "work")
        json.dumps(j.stats())

    def test_delite_kernels_counted(self):
        import numpy as np
        from repro.delite.ops import MapOp
        from repro.delite.kernels import Kernel
        j = Lancet()
        k = Kernel(lambda x: x * 2, 1, numpy_fn=lambda x: x * 2,
                   name="double")
        op = MapOp(k)
        out = j.delite.run(op, np.array([1.0, 2.0]))
        assert list(out) == [2.0, 4.0]
        assert j.stats()["delite_kernels"] == 1


class TestUnitCache:
    def test_options_fingerprint_distinguishes(self):
        """Different CompileOptions must compile separate specializations."""
        j = load(SRC)
        a = j.compile_function("Main", "work")
        b = j.compile_function("Main", "work",
                               options=CompileOptions(inline_policy="never"))
        assert a is not b
        assert j.telemetry.metrics.get("compiles") == 2

    def test_invalidated_cached_unit_recompiles_on_call(self):
        j = load(SRC)
        c = j.compile_function("Main", "work")
        c.invalidate("test")
        cached = j.compile_function("Main", "work")
        assert cached is c              # still the cached wrapper
        assert cached(4) == 6           # transparently recompiles
        assert cached.valid


class TestTraceOfCompilation:
    def test_compile_events_well_formed(self):
        j = load(SRC)
        j.telemetry.enable_trace()
        j.compile_function("Main", "work")
        kinds = [e.kind for e in j.telemetry.events()]
        assert kinds.index("compile.start") < kinds.index("compile.end")
        end = j.telemetry.events("compile.end")[0]
        assert end.data["unit"] == "Main.work"
        assert end.data["seconds"] > 0
        assert end.data["blocks"] >= 1

    def test_analysis_report_event(self):
        j = load(SRC)
        j.telemetry.enable_trace()
        j.compile_function("Main", "work")
        reports = j.telemetry.events("analysis.report")
        assert len(reports) == 1
        data = reports[0].data
        assert data["unit"] == "Main.work"
        assert data["blocks"] >= 1
        assert data["leaks"] == 0 and data["noalloc_sites"] == 0
        assert "removed_stmts" in data and "removed_guards" in data

    def test_analysis_verify_fail_event(self):
        from repro.analysis import Diagnostics
        from repro.compiler.stagedinterp import CompileResult
        from repro.lms.ir import Block, Jump
        from repro.pipeline.passes import PassManager

        bad = Block(0)
        bad.terminator = Jump(99)            # corrupted CFG
        result = CompileResult(
            blocks={0: bad}, entry_bid=0, entry_assigns=[], param_names=[],
            metas=[], statics=None, stable_deps=[], warnings=[],
            taint_branch_sinks=[], noalloc_sites=[])
        tel = Telemetry().enable_trace()
        diag = Diagnostics(unit="bad")
        PassManager(CompileOptions(verify_ir=True), telemetry=tel,
                    diagnostics=diag).run(result, "bad", tier=2)
        fails = tel.events("analysis.verify_fail")
        assert fails and fails[0].data["unit"] == "bad"
        assert any("missing block" in e for e in fails[0].data["errors"])
        assert any(d.kind == "verify" for d in diag.errors())

    def test_trace_jsonl_valid(self, tmp_path):
        j = load(SRC)
        j.telemetry.enable_trace()
        j.compile_function("Main", "work")
        path = tmp_path / "out.jsonl"
        n = j.telemetry.export_jsonl(str(path))
        assert n == len(j.telemetry.events())
        with open(path) as f:
            for line in f:
                event = json.loads(line)
                assert "kind" in event and "seq" in event and "ts" in event


class TestCli:
    def run_cli(self, tmp_path, *argv):
        import contextlib
        import sys
        from repro.__main__ import main
        program = tmp_path / "prog.mj"
        program.write_text(SRC)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([argv[0], str(program)] + list(argv[1:]))
        return rc, out.getvalue(), err.getvalue()

    def test_jit_stats_flag(self, tmp_path):
        rc, out, err = self.run_cli(tmp_path, "jit", "work", "5",
                                    "--jit-stats")
        assert rc == 0
        assert out.strip() == "10"
        stats = json.loads(err[err.index("{"):])
        assert stats["compiles"] == 1

    def test_trace_jit_flag(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc, out, err = self.run_cli(tmp_path, "jit", "work", "5",
                                    "--trace-jit", str(trace))
        assert rc == 0
        events = load_jsonl(str(trace))
        assert any(e.kind == "compile.end" for e in events)

    def test_run_subcommand_flags(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc, out, err = self.run_cli(tmp_path, "run", "work", "4",
                                    "--jit-stats", "--trace-jit", str(trace))
        assert rc == 0
        assert out.strip() == "6"
        assert '"interp_invocations"' in err
