"""The persistent code cache and a VM's own compile queue.

In-process tests cover the on-disk store (round trips, fingerprint
sensitivity, corruption quarantine, budget eviction, invalidation) and
the queue semantics of a one-tenant CompileServer (priorities, dedup,
backpressure, blacklist, cancel). Subprocess tests prove the headline claim:
a warm start runs the same program with **zero** compiles and
byte-identical generated code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import Lancet
from repro.codecache import (FORMAT_VERSION, PersistentCodeCache,
                             fingerprint, program_fingerprint)
from repro.compiler.options import CompileOptions
from repro.errors import CompilationError
from repro.observability import Telemetry
from repro.server import (PRIORITY_OSR, PRIORITY_PREFETCH, PRIORITY_TIER1,
                          PRIORITY_TIER2, CompileServer, daemon)
from tests.conftest import load

SRC = '''
    def addmul(x) {
      var acc = 7;
      var i = 0;
      while (i < 3) { acc = acc + x; i = i + 1; }
      return acc;
    }
    def other(x) { return x - 1; }
'''


def load_cached(tmp_path, source=SRC, **opt_kw):
    opts = CompileOptions(cache_dir=str(tmp_path / "cc"), **opt_kw)
    return load(source, options=opts)


def entry_files(cache_dir):
    return sorted(p for p in os.listdir(cache_dir) if p.endswith(".json"))


class TestPersistentStore:
    def test_cold_store_then_warm_load(self, tmp_path):
        j1 = load_cached(tmp_path)
        f1 = j1.compile_function("Main", "addmul")
        assert f1(5) == 22
        s1 = j1.stats()
        assert s1["compiles"] == 1
        assert s1["codecache"]["stores"] == 1
        assert s1["codecache"]["misses"] == 1

        # A second VM over the same cache dir: zero compiles, same code.
        j2 = load_cached(tmp_path)
        f2 = j2.compile_function("Main", "addmul")
        assert f2(5) == 22
        s2 = j2.stats()
        assert s2["compiles"] == 0
        assert s2["codecache"]["hits"] == 1
        assert f2.source == f1.source
        assert f2.persist_key == f1.persist_key

    def test_warm_unit_still_deopts_and_recompiles(self, tmp_path):
        src = '''
            def clamp(x) {
              if (Lancet.speculate(x < 100)) { return x; }
              return 100;
            }
        '''
        j1 = load_cached(tmp_path, source=src)
        assert j1.compile_function("Main", "clamp")(5) == 5
        j2 = load_cached(tmp_path, source=src)
        f = j2.compile_function("Main", "clamp")
        assert j2.stats()["compiles"] == 0        # warm
        assert f(500) == 100                      # guard fails -> interpreter
        assert f.deopt_count == 1

    def test_fingerprint_tracks_bytecode(self, tmp_path):
        j1 = load_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        changed = SRC.replace("acc = 7", "acc = 8")
        j2 = load_cached(tmp_path, source=changed)
        f = j2.compile_function("Main", "addmul")
        assert f(5) == 23
        s2 = j2.stats()
        assert s2["compiles"] == 1                 # miss: source changed
        assert s2["codecache"]["hits"] == 0

    def test_fingerprint_tracks_codegen_options(self, tmp_path):
        j1 = load_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        j2 = load_cached(tmp_path, inline_policy="never")
        j2.compile_function("Main", "addmul")
        assert j2.stats()["compiles"] == 1         # options in the key

    def test_fingerprint_ignores_non_codegen_options(self, tmp_path):
        j1 = load_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        # Trace-tier counters don't affect generated code, so they must
        # not force a cold start.
        j2 = load_cached(tmp_path, trace_threshold=7)
        j2.compile_function("Main", "addmul")
        assert j2.stats()["compiles"] == 0
        j2.close()

    def test_fingerprint_tracks_macro_registry(self, tmp_path):
        j1 = load_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        j2 = load_cached(tmp_path)
        # An extra installed macro changes staging semantics: the old
        # entry must not be trusted even though the bytecode matches.
        j2.macros.install("Whatever", "m", lambda ctx, recv, args: None)
        j2.compile_function("Main", "addmul")
        assert j2.stats()["compiles"] == 1

    def test_corrupt_entry_quarantined_and_recompiled(self, tmp_path):
        j1 = load_cached(tmp_path)
        f1 = j1.compile_function("Main", "addmul")
        cache_dir = j1.codecache.root
        (name,) = entry_files(cache_dir)
        path = os.path.join(cache_dir, name)
        with open(path, "r+") as f:
            f.truncate(30)                         # torn write / bad disk

        j2 = load_cached(tmp_path)
        j2.telemetry.enable_trace()
        f2 = j2.compile_function("Main", "addmul")
        assert f2(5) == f1(5)
        s2 = j2.stats()
        assert s2["compiles"] == 1                 # clean miss, recompiled
        assert s2["codecache"]["quarantines"] == 1
        events = j2.telemetry.events("codecache.quarantine")
        assert len(events) == 1
        assert name in events[0].data["path"]
        # The corpse is sidelined for autopsy, and the fresh store wrote
        # a good entry under the real name again.
        assert os.path.exists(path + ".quarantine")
        assert entry_files(cache_dir) == [name]

    def test_checksum_mismatch_quarantined(self, tmp_path):
        j1 = load_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        cache_dir = j1.codecache.root
        (name,) = entry_files(cache_dir)
        path = os.path.join(cache_dir, name)
        with open(path) as f:
            wrapper = json.load(f)
        wrapper["payload"]["source"] += "\n# tampered"
        with open(path, "w") as f:
            json.dump(wrapper, f)

        j2 = load_cached(tmp_path)
        j2.compile_function("Main", "addmul")
        s2 = j2.stats()
        assert s2["compiles"] == 1
        assert s2["codecache"]["quarantines"] == 1

    def test_format_version_mismatch_is_clean_miss(self, tmp_path):
        j1 = load_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        cache_dir = j1.codecache.root
        (name,) = entry_files(cache_dir)
        path = os.path.join(cache_dir, name)
        with open(path) as f:
            wrapper = json.load(f)
        wrapper["format"] = FORMAT_VERSION + 1
        with open(path, "w") as f:
            json.dump(wrapper, f)

        j2 = load_cached(tmp_path)
        j2.compile_function("Main", "addmul")
        s2 = j2.stats()
        assert s2["compiles"] == 1
        assert s2["codecache"]["version_misses"] == 1
        assert s2["codecache"]["quarantines"] == 0  # not corruption
        assert not os.path.exists(path + ".quarantine")

    def test_budget_eviction_drops_oldest(self, tmp_path):
        j = load_cached(tmp_path)
        j.compile_function("Main", "addmul")
        j.compile_function("Main", "other")
        cache = j.codecache
        names = entry_files(cache.root)
        assert len(names) == 2
        # Age the addmul entry, shrink the budget to one entry, enforce.
        sizes = {n: os.path.getsize(os.path.join(cache.root, n))
                 for n in names}
        old = time.time() - 1000
        victim = names[0]
        os.utime(os.path.join(cache.root, victim), (old, old))
        cache.budget_bytes = max(s for s in sizes.values())
        cache._enforce_budget()
        survivors = entry_files(cache.root)
        assert victim not in survivors
        assert len(survivors) >= 1
        assert j.stats()["codecache"]["evicts"] >= 1

    def test_invalidation_reaches_disk(self, tmp_path):
        j = load_cached(tmp_path)
        f = j.compile_function("Main", "addmul")
        assert f.persist_key is not None
        assert len(entry_files(j.codecache.root)) == 1
        # The runtime invalidation path (a stable guard failing calls
        # exactly this): the on-disk entry bakes in the dead snapshot
        # and must die with the in-memory code.
        f.invalidate("stable guard failed (stable)")
        assert entry_files(j.codecache.root) == []
        assert f.persist_key is None
        assert j.stats()["codecache"]["invalidates"] == 1
        # Recompile works and re-persists on the next cached compile.
        assert f(5) == 22

    def test_no_persist_option_disables(self, tmp_path):
        j = load_cached(tmp_path, persist=False)
        j.compile_function("Main", "addmul")
        assert j.codecache is None
        assert j.stats()["codecache"]["enabled"] is False

    def test_unwritable_cache_dir_degrades(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        opts = CompileOptions(cache_dir=str(blocker / "sub"))
        j = load(SRC, options=opts)
        f = j.compile_function("Main", "addmul")   # must not raise
        assert f(5) == 22
        assert j.codecache is None or not j.codecache.enabled

    def test_disabled_store_is_inert(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cache = PersistentCodeCache(str(blocker / "nope"))
        assert cache.enabled is False
        assert cache.load("deadbeef", None) is None
        assert cache.store("deadbeef", None, None) is False
        assert cache.invalidate("deadbeef") is False

    def test_receiver_specialized_units_never_persist(self, tmp_path):
        src = '''
            class Box {
              val k;
              def init(k) { this.k = k; }
              def scale(z) { return this.k * z; }
            }
            def make(k) { return new Box(k); }
        '''
        j = load_cached(tmp_path, source=src)
        box = j.vm.call("Main", "make", [6])
        f = j.compile_method("Box", "scale", box)
        assert f(7) == 42
        # Identity-bound to this heap: nothing may hit the disk.
        assert entry_files(j.codecache.root) == []


BOX_SRC = '''
    class Box {
      var v;
      def init(v) { this.v = v; }
    }
'''


class TestProgramFingerprint:
    """The program hash is memoized per linker version: every mutation
    of the fingerprinted state moves it, nothing else re-renders it."""

    def test_tracks_load_and_mark_stable(self):
        j = load(SRC)
        before = program_fingerprint(j.vm.linker)
        j.load(BOX_SRC, module="Boxes")
        loaded = program_fingerprint(j.vm.linker)
        assert loaded != before
        j.mark_stable("Box", "v")
        stable = program_fingerprint(j.vm.linker)
        assert stable not in (before, loaded)
        # The memo equals a from-scratch hash of the same program.
        fresh = load(SRC)
        fresh.load(BOX_SRC, module="Boxes")
        fresh.mark_stable("Box", "v")
        assert program_fingerprint(fresh.vm.linker) == stable

    def test_warm_ladder_renders_program_once(self, tmp_path, monkeypatch):
        ladder_opts = dict(tier1_threshold=1, tier2_threshold=2,
                           osr_threshold=10 ** 9)

        def ladder(j):
            names = sorted(j.vm.linker.resolve_class("Main")
                           .classfile.methods)
            for name in names:
                tf = j.compile_tiered("Main", name)
                for _ in range(3):
                    tf(5)
            return names

        ladder(load_cached(tmp_path, **ladder_opts))
        renders = []
        render = fingerprint._render_program

        def counting(linker):
            renders.append(linker.version)
            return render(linker)

        monkeypatch.setattr(fingerprint, "_render_program", counting)
        warm = load_cached(tmp_path, **ladder_opts)
        names = ladder(warm)
        stats = warm.stats()
        assert stats["compiles"] == 0
        assert stats["codecache"]["hits"] == 2 * len(names)   # T1 + T2
        assert renders == [warm.vm.linker.version]

    def test_mark_stable_misses_persisted_unit(self, tmp_path):
        cold = load_cached(tmp_path, source=SRC + BOX_SRC)
        cold.compile_function("Main", "addmul")
        warm = load_cached(tmp_path, source=SRC + BOX_SRC)
        program_fingerprint(warm.vm.linker)      # memoized pre-mark
        warm.mark_stable("Box", "v")
        assert warm.compile_function("Main", "addmul")(5) == 22
        stats = warm.stats()
        assert stats["compiles"] == 1
        assert stats["codecache"]["hits"] == 0

    def test_synthesized_class_names_are_per_vm(self):
        """Two VMs in one process that synthesize the same classes load
        the same names, so they fingerprint the same program (a fleet
        tenant hits what another stored)."""
        from repro.apps import load_app
        from repro.jit.cache import make_jit
        from repro.optiml import load_optiml
        from repro.optiml.reference import names_data

        def vm():
            j = Lancet()
            load_optiml(j)
            load_app(j, "namescore", module="Namescore")
            j.vm.call("Namescore", "makeCompiled", [names_data(20)])(0)
            j.load("def add(x, y) { return x + y; }", module="Calc")
            assert make_jit(j, "Calc", "add")(2, 3) == 5
            return j

        a, b = vm(), vm()
        assert sorted(a.vm.linker.classes) == sorted(b.vm.linker.classes)
        assert any(n.startswith("Delite$SoA") for n in a.vm.linker.classes)
        assert (program_fingerprint(a.vm.linker)
                == program_fingerprint(b.vm.linker))

    def test_key_parts_unchanged(self):
        """Unit and trace keys hash the same parts, in the same order,
        as before they shared a helper: stores written earlier still
        hit."""
        import importlib.util
        j = load(SRC)
        m = j.vm.linker.resolve_static("Main", "addmul")
        opts = j.options
        common = [
            "program %s" % program_fingerprint(j.vm.linker),
            "options %s" % fingerprint.options_signature(opts),
            "macros %s" % j.macros.version,
            "backend python",
        ]
        assert (fingerprint.unit_fingerprint(j, m, opts)
                == fingerprint._h(["unit Main.addmul/1 static=True"]
                                  + common))
        assert (fingerprint.unit_fingerprint(j, m, opts, kind="baseline")
                == fingerprint._h(
                    ["baseline Main.addmul/1 static=True"] + common
                    + ["magic %s" % importlib.util.MAGIC_NUMBER.hex()]))
        assert (fingerprint.trace_fingerprint(j, m, 4, opts)
                == fingerprint._h(["trace Main.addmul/1@4 static=True"]
                                  + common))


def load_baseline_cached(tmp_path, source=SRC):
    """Fresh Lancet whose default options route compiles through the
    baseline Tier-1 path, persisting into ``tmp_path``."""
    from repro.pipeline import TIER1, tier_options
    opts = tier_options(CompileOptions(cache_dir=str(tmp_path / "cc")),
                        TIER1)
    return load(source, options=opts)


def _rewrap(path, mutate):
    """Edit a stored entry's payload and re-sign it, so the checksum
    still verifies and the corruption is only visible to rehydration."""
    from repro.codecache.store import _checksum
    with open(path) as f:
        wrapper = json.load(f)
    mutate(wrapper["payload"])
    wrapper["sha256"] = _checksum(wrapper["payload"])
    with open(path, "w") as f:
        json.dump(wrapper, f)


@pytest.mark.skipif(
    "not __import__('repro.baseline', fromlist=['x']).baseline_supported()",
    reason="baseline templates target CPython 3.11")
class TestBaselinePersistence:
    """Baseline units persist a *marshaled code object*, not source
    (ISSUE 8): round trips must skip translate/assemble entirely, and a
    corrupt code payload must quarantine, never crash or miscompute."""

    def test_round_trip_skips_compile(self, tmp_path):
        j1 = load_baseline_cached(tmp_path)
        f1 = j1.compile_function("Main", "addmul")
        assert f1.kind == "baseline"
        assert f1(5) == 22
        assert j1.stats()["codecache"]["stores"] == 1

        j2 = load_baseline_cached(tmp_path)
        f2 = j2.compile_function("Main", "addmul")
        assert f2.kind == "baseline"
        assert f2(5) == 22
        s2 = j2.stats()
        assert s2["compiles"] == 0
        assert s2["codecache"]["hits"] == 1
        assert f2.persist_key == f1.persist_key
        # The rehydrated unit is the same marshaled code object.
        assert f2.code_object.co_code == f1.code_object.co_code

    def test_corrupt_marshal_quarantined_and_recompiled(self, tmp_path):
        j1 = load_baseline_cached(tmp_path)
        f1 = j1.compile_function("Main", "addmul")
        (name,) = entry_files(j1.codecache.root)
        path = os.path.join(j1.codecache.root, name)

        def clobber(payload):
            assert payload["kind"] == "baseline"
            payload["code"] = "AAAA" + payload["code"][4:]
        _rewrap(path, clobber)

        j2 = load_baseline_cached(tmp_path)
        f2 = j2.compile_function("Main", "addmul")
        assert f2(5) == f1(5)
        s2 = j2.stats()
        assert s2["compiles"] == 1                 # clean miss, recompiled
        assert s2["codecache"]["quarantines"] == 1
        assert os.path.exists(path + ".quarantine")

    def test_magic_mismatch_is_clean_miss(self, tmp_path):
        """An entry marshaled by a different CPython reads as a miss —
        no quarantine (the file may belong to another interpreter
        sharing the directory), no marshal.loads of foreign bytes."""
        j1 = load_baseline_cached(tmp_path)
        j1.compile_function("Main", "addmul")
        (name,) = entry_files(j1.codecache.root)
        path = os.path.join(j1.codecache.root, name)
        _rewrap(path, lambda p: p.__setitem__("magic", "deadbeef"))

        j2 = load_baseline_cached(tmp_path)
        f2 = j2.compile_function("Main", "addmul")
        assert f2(5) == 22
        s2 = j2.stats()
        assert s2["compiles"] == 1
        assert s2["codecache"]["quarantines"] == 0
        assert s2["codecache"]["misses"] == 1
        assert not os.path.exists(path + ".quarantine")

    def test_baseline_and_staged_entries_coexist(self, tmp_path):
        """The fingerprint ``kind`` separates the two representations:
        the same method compiled baseline and staged occupies two cache
        entries, and each warm start hits its own."""
        import dataclasses
        j = load_baseline_cached(tmp_path)
        quick = j.compile_function("Main", "addmul")
        assert quick.kind == "baseline"
        staged_opts = dataclasses.replace(j.options, baseline=False)
        staged = j.compile_function("Main", "addmul", options=staged_opts)
        assert getattr(staged, "kind", None) != "baseline"
        assert staged(5) == quick(5) == 22
        assert len(entry_files(j.codecache.root)) == 2


class TestOneTenantServer:
    """A VM's own queue: a CompileServer with one worker and one tenant."""

    def _gated_server(self, **kw):
        """A 1-worker server whose first job blocks on a gate, so tests
        can fill the queue deterministically behind it."""
        server = CompileServer(workers=1, **kw)
        gate = threading.Event()
        started = threading.Event()

        def plug():
            started.set()
            gate.wait(5.0)
            return "plug"

        req = server.submit("plug", plug, priority=PRIORITY_OSR)
        assert started.wait(5.0)
        return server, gate, req

    def test_priority_order(self):
        server, gate, _plug = self._gated_server()
        try:
            order = []
            reqs = [server.submit(key, lambda k=key: order.append(k) or k,
                                  priority=prio)
                    for key, prio in (("pf", PRIORITY_PREFETCH),
                                      ("t1", PRIORITY_TIER1),
                                      ("osr", PRIORITY_OSR),
                                      ("t2", PRIORITY_TIER2))]
            gate.set()
            for r in reqs:
                r.wait(5.0)
            assert order == ["osr", "t2", "t1", "pf"]
        finally:
            gate.set()
            server.close()

    def test_inflight_dedup(self):
        """A second submit for a queued key parks behind the first and
        runs after it (a unit-cache hit in real use)."""
        server, gate, _plug = self._gated_server()
        try:
            order = []
            a = server.submit("k", lambda: order.append("a") or "va")
            b = server.submit("k", lambda: order.append("b") or "vb")
            assert a is not b
            assert server.stats()["queue_depth"] == 1
            gate.set()
            assert a.wait(5.0) == "va"
            assert b.wait(5.0) == "vb"
            assert order == ["a", "b"]
            assert server.stats()["dedup_followers"] == 1
        finally:
            gate.set()
            server.close()

    def test_backpressure_sheds_lowest_priority(self, monkeypatch):
        monkeypatch.setattr(daemon, "PER_TENANT_LIMIT", 2)
        server, gate, _plug = self._gated_server()
        try:
            pf = server.submit("pf", lambda: "pf",
                               priority=PRIORITY_PREFETCH)
            t1 = server.submit("t1", lambda: "t1", priority=PRIORITY_TIER1)
            # Queue full; an urgent request sheds the prefetch.
            osr = server.submit("osr", lambda: "osr", priority=PRIORITY_OSR)
            assert not osr.rejected
            assert pf.state == "failed"
            assert "shed" in pf.error
            # Another prefetch has nothing less urgent to shed: rejected.
            pf2 = server.submit("pf2", lambda: "x",
                                priority=PRIORITY_PREFETCH)
            assert pf2.rejected
            gate.set()
            assert osr.wait(5.0) == "osr"
            assert t1.wait(5.0) == "t1"
            assert server.stats()["shed"] == 1
            assert server.stats()["rejected"] == 1
        finally:
            gate.set()
            server.close()

    def test_shed_notifies_on_error_and_emits_event(self, monkeypatch):
        """A request dropped under backpressure must hear about it: its
        on_error callback fires (a tier promotion that is never notified
        stays pending forever) and server.shed is recorded."""
        monkeypatch.setattr(daemon, "PER_TENANT_LIMIT", 1)
        tel = Telemetry()
        tel.enable_trace()
        server, gate, _plug = self._gated_server(telemetry=tel)
        try:
            errors = []
            pf = server.submit("pf", lambda: "pf",
                               priority=PRIORITY_PREFETCH,
                               on_error=errors.append)
            osr = server.submit("osr", lambda: "osr", priority=PRIORITY_OSR)
            assert not osr.rejected
            assert pf.state == "failed"
            assert errors == ["shed under backpressure"]
            shed_events = tel.events("server.shed")
            assert len(shed_events) == 1
            assert shed_events[0].data["key"] == repr("pf")
            assert tel.metrics.get("server.shed") == 1
        finally:
            gate.set()
            server.close()

    def test_shed_on_error_fires_exactly_once(self, monkeypatch):
        """The shed path and the generic failure path share the same
        notifier; a victim's callback must not double-fire."""
        monkeypatch.setattr(daemon, "PER_TENANT_LIMIT", 1)
        server, gate, _plug = self._gated_server()
        try:
            errors = []
            server.submit("pf", lambda: "pf", priority=PRIORITY_PREFETCH,
                          on_error=errors.append)
            server.submit("osr1", lambda: "a", priority=PRIORITY_OSR)
            server.submit("osr2", lambda: "b", priority=PRIORITY_OSR)
            gate.set()
            time.sleep(0.05)
            server.close()
            assert errors == ["shed under backpressure"]
        finally:
            gate.set()
            server.close()

    def test_compilation_error_fails_immediately(self):
        server = CompileServer(workers=1)
        try:
            attempts = []
            errors = []

            def broken():
                attempts.append(1)
                raise CompilationError("bad unit")

            req = server.submit("k", broken, on_error=errors.append)
            assert req.wait(5.0) is None
            assert req.state == "failed"
            assert len(attempts) == 1          # no retries
            assert errors == ["bad unit"]
        finally:
            server.close()

    def test_blacklist_after_repeated_failure(self):
        server = CompileServer(workers=1)
        try:
            def broken():
                raise CompilationError("poisoned")

            for _ in range(daemon.BLACKLIST_AFTER):
                failed = server.submit("k", broken)
                failed.wait(5.0)
                assert failed.state == "failed"
            req = server.submit("k", broken)
            assert req.rejected
            assert req.error == "blacklisted"
            assert server.stats()["blacklisted"] == [repr("k")]
            # Other keys are unaffected.
            assert server.submit("j", lambda: "ok").wait(5.0) == "ok"
        finally:
            server.close()

    def test_cancel_discards_result(self):
        server, gate, req = self._gated_server()
        try:
            done = []
            req.on_complete = done.append
            server.cancel("plug")
            gate.set()
            time.sleep(0.05)
            assert req.state == "cancelled"
            assert done == []                  # callback never ran
        finally:
            gate.set()
            server.close()

    def test_submit_after_close_rejected(self):
        server = CompileServer(workers=1)
        server.close()
        req = server.submit("k", lambda: "v")
        assert req.rejected
        assert req.error == "server closed"


class TestAsyncLancet:
    def test_async_promotion_lands(self, tmp_path):
        opts = CompileOptions(compile_workers=2, tier1_threshold=2,
                              tier2_threshold=4)
        j = load(SRC, options=opts)
        try:
            f = j.compile_tiered("Main", "addmul")
            for _ in range(6):
                assert f(5) == 22
            deadline = time.monotonic() + 5.0
            while f.tier < 2 and time.monotonic() < deadline:
                f(5)
                time.sleep(0.005)
            assert f.tier == 2
            assert f(5) == 22
            stats = j.stats()
            assert stats["server"]["completed"] >= 1
        finally:
            j.close()

    def test_prefetch_warms_unit_cache(self):
        opts = CompileOptions(compile_workers=1)
        j = load(SRC, options=opts)
        try:
            req = j.prefetch("Main", "addmul")
            assert req is not None
            req._event.wait(5.0)
            assert j.stats()["compiles"] == 1
            # The foreground call is now a unit-cache hit, not a compile.
            f = j.compile_function("Main", "addmul")
            assert f(5) == 22
            assert j.stats()["compiles"] == 1
        finally:
            j.close()

    def test_prefetch_without_service_is_noop(self):
        j = load(SRC)
        assert j.prefetch("Main", "addmul") is None

    def test_close_is_idempotent(self):
        j = load(SRC, options=CompileOptions(compile_workers=1))
        j.close()
        j.close()
        assert j.compile_function("Main", "addmul")(5) == 22


PROG = '''
def hot(x) {
  var acc = 0;
  var i = 0;
  while (i < 10) { acc = acc + x * i; i = i + 1; }
  return acc;
}
'''


def _run_cli(tmp_path, *extra, check=True):
    prog = tmp_path / "prog.mj"
    if not prog.exists():
        prog.write_text(PROG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                     "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "jit", str(prog), "hot", "4",
         "--cache-dir", str(tmp_path / "cc")] + list(extra),
        capture_output=True, text=True, env=env)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _stats(proc):
    err = proc.stderr
    return json.loads(err[err.index("{"):])


class TestWarmStartSubprocess:
    def test_second_process_zero_compiles_identical_code(self, tmp_path):
        cold = _run_cli(tmp_path, "--jit-stats", "--show-code")
        warm = _run_cli(tmp_path, "--jit-stats", "--show-code")
        assert cold.stdout == warm.stdout
        cold_stats, warm_stats = _stats(cold), _stats(warm)
        assert cold_stats["compiles"] >= 1
        assert warm_stats["compiles"] == 0
        assert warm_stats["codecache"]["hits"] >= 1

        def code_section(proc):
            err = proc.stderr
            start = err.index("--- generated code ---")
            return err[start:err.index("\n{", start)]

        assert code_section(cold) == code_section(warm)

    def test_corrupt_entry_quarantined_across_processes(self, tmp_path):
        cold = _run_cli(tmp_path, "--jit-stats")
        cache_dir = tmp_path / "cc"
        (entry,) = [p for p in os.listdir(cache_dir)
                    if p.endswith(".json")]
        path = cache_dir / entry
        path.write_text(path.read_text()[:25])     # truncate

        after = _run_cli(tmp_path, "--jit-stats")
        assert after.stdout == cold.stdout         # still correct
        stats = _stats(after)
        assert stats["compiles"] >= 1
        assert stats["codecache"]["quarantines"] == 1
        assert os.path.exists(str(path) + ".quarantine")
