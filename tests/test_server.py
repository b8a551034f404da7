"""The multi-tenant compile server: sharded store, cross-VM dedup,
admission control / fairness / blacklisting, and how a tenant VM
degrades when its server closes."""

from __future__ import annotations

import os
import threading
import time

from repro import Lancet
from repro.compiler.options import CompileOptions
from repro.errors import CompilationError
from repro.observability import Telemetry
from repro.server import (PRIORITY_OSR, PRIORITY_TIER1, CompileServer,
                          ShardedCodeCache, close_shared_servers, daemon,
                          shared_server)

SRC = '''
    def work(n) {
      var s = 0;
      var i = 0;
      while (i < n) { s = s + i * i; i = i + 1; }
      return s;
    }
    def other(n) { return n * 3 + 1; }
'''

EXPECTED_WORK_10 = sum(i * i for i in range(10))


def make_jit(server=None, **opts):
    j = Lancet(options=CompileOptions(**opts))
    j.load(SRC)
    if server is not None:
        j.attach_compile_server(server)
    return j


def stored_fingerprints(store):
    """Every fingerprint on disk, read from the shard directories."""
    return sorted(name[:-len(".json")] for shard in store.shards
                  for name in os.listdir(shard.root)
                  if name.endswith(".json"))


# -- the sharded store --------------------------------------------------------


class TestShardedCodeCache:
    def test_shard_layout_and_index(self, tmp_path):
        store = ShardedCodeCache(tmp_path / "cc", shards=4)
        assert store.enabled
        assert len(store.shards) == 4
        # Hex prefixes spread deterministically over the shards.
        assert store._shard_index("00" + "a" * 62) == 0
        assert store._shard_index("01" + "a" * 62) == 1
        assert store._shard_index("05" + "a" * 62) == 1
        for fp in ("%02x%s" % (b, "0" * 62) for b in range(32)):
            assert store.shard_for(fp) is store.shard_for(fp)

    def test_non_hex_keys_map_stably_across_processes(self, tmp_path):
        """The non-hex fallback must not depend on built-in hash()
        (randomized per process by PYTHONHASHSEED): cross-process fleets
        share the store on disk, so every process must agree on the
        owning shard."""
        import hashlib
        store = ShardedCodeCache(tmp_path / "cc", shards=4)
        for key in ("not-hex-key", "zz123", "Main.work/unit"):
            expected = int(hashlib.sha256(key.encode("utf-8"))
                           .hexdigest()[:8], 16) % 4
            assert store._shard_index(key) == expected

    def test_budget_splits_across_shards(self, tmp_path):
        store = ShardedCodeCache(tmp_path / "cc", shards=8,
                                 budget_bytes=8 << 20)
        assert all(s.budget_bytes == 1 << 20 for s in store.shards)

    def test_miss_and_stats_shape(self, tmp_path):
        store = ShardedCodeCache(tmp_path / "cc", shards=2,
                                 telemetry=Telemetry())
        assert store.load("ab" + "0" * 62, jit=None) is None
        s = store.stats()
        assert s["shards"] == 2
        assert s["entries"] == 0
        assert len(s["entries_per_shard"]) == 2
        assert s["misses"] == 1

    def test_units_persist_and_share_across_vms(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            j1 = make_jit(server)
            f1 = j1.compile_function("Main", "work")
            assert f1(10) == EXPECTED_WORK_10
            assert server.store.stats()["entries"] == 1
            assert len(stored_fingerprints(server.store)) == 1
            j1.close()
            # A brand-new VM warm-starts from the tenant's store entry.
            j2 = make_jit(server)
            f2 = j2.compile_function("Main", "work")
            assert f2(10) == EXPECTED_WORK_10
            assert server.store.stats()["entries"] == 1
            assert j2.telemetry.metrics.get("compiles") == 0
            j2.close()
        finally:
            server.close()

    def test_invalidate_targets_owning_shard(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            j = make_jit(server)
            j.compile_function("Main", "work")(10)
            fp, = stored_fingerprints(server.store)
            assert server.store.invalidate(fp)
            assert stored_fingerprints(server.store) == []
            assert server.store.stats()["entries"] == 0
            j.close()
        finally:
            server.close()


# -- the queue: admission, fairness, priorities -------------------------------


class TestServerQueue:
    def drain_server(self, monkeypatch=None, **limits):
        """A manual-drain server; ``limits`` override module constants
        (e.g. ``QUEUE_LIMIT=2``) for the test's duration."""
        for name, value in limits.items():
            monkeypatch.setattr(daemon, name, value)
        return CompileServer(workers=0)

    def test_fifo_round_robin_between_tenants(self):
        server = self.drain_server()
        try:
            order = []
            for key, tenant in (("a1", "A"), ("a2", "A"), ("a3", "A"),
                                ("b1", "B"), ("b2", "B")):
                server.submit(key, lambda k=key: order.append(k) or k,
                              tenant=tenant)
            assert server.drain() == 5
            # One request per turn; each tenant's own requests stay FIFO.
            assert order == ["a1", "b1", "a2", "b2", "a3"]
        finally:
            server.close()

    def test_priority_beats_round_robin(self):
        server = self.drain_server()
        try:
            order = []
            server.submit("t1", lambda: order.append("t1"), tenant="A",
                          priority=PRIORITY_TIER1)
            server.submit("osr", lambda: order.append("osr"), tenant="B",
                          priority=PRIORITY_OSR)
            server.drain()
            assert order == ["osr", "t1"]
        finally:
            server.close()

    def test_per_tenant_cap_rejects_the_hog_only(self, monkeypatch):
        server = self.drain_server(monkeypatch, PER_TENANT_LIMIT=2)
        try:
            a1 = server.submit("a1", lambda: 1, tenant="A")
            a2 = server.submit("a2", lambda: 2, tenant="A")
            a3 = server.submit("a3", lambda: 3, tenant="A")
            b1 = server.submit("b1", lambda: 4, tenant="B")
            assert not a1.rejected and not a2.rejected
            assert a3.rejected and a3.error == "tenant queue full"
            assert not b1.rejected      # the cap is per tenant
            assert server.stats()["rejected"] == 1
        finally:
            server.close()

    def test_backpressure_sheds_lowest_and_notifies(self, monkeypatch):
        server = self.drain_server(monkeypatch, QUEUE_LIMIT=2)
        try:
            errors = []
            low = server.submit("low", lambda: "low", tenant="A",
                                priority=PRIORITY_TIER1,
                                on_error=errors.append)
            server.submit("t1", lambda: "t1", tenant="B",
                          priority=PRIORITY_TIER1)
            osr = server.submit("osr", lambda: "osr", tenant="C",
                                priority=PRIORITY_OSR)
            assert not osr.rejected
            assert low.state == "failed"
            assert errors == ["shed under backpressure"]
            # Nothing strictly less urgent left for another tier-1.
            late = server.submit("late", lambda: "x", tenant="D",
                                 priority=PRIORITY_TIER1)
            assert late.rejected
            s = server.stats()
            assert s["shed"] == 1 and s["rejected"] == 1
        finally:
            server.close()

    def test_handle_cancel_of_queued_request_never_runs(self):
        """A queued request cancelled via its public CompileRequest
        handle (bypassing CompileServer.cancel) is skipped by the
        worker and leaves the in-flight table."""
        server = self.drain_server()
        try:
            ran = []
            req = server.submit("k", lambda: ran.append("k"), tenant="A")
            req.cancel()                # the handle, not server.cancel()
            server.drain()
            assert ran == []
            assert req.state == "cancelled"
            assert server.stats()["in_flight"] == 0
        finally:
            server.close()

    def test_submit_after_close_rejected(self):
        server = self.drain_server()
        server.close()
        req = server.submit("k", lambda: 1, tenant="A")
        assert req.rejected
        assert req.error == "server closed"

    def test_close_fails_queued_requests(self):
        server = self.drain_server()
        errors = []
        req = server.submit("k", lambda: 1, tenant="A",
                            on_error=errors.append)
        server.close()
        assert req.state == "failed"
        assert errors == ["server closed"]

    def test_cancel_removes_queued_request(self):
        server = self.drain_server()
        try:
            ran = []
            server.submit("k", lambda: ran.append(1), tenant="A")
            assert server.cancel("k", tenant="A") is not None
            server.drain()
            assert ran == []
        finally:
            server.close()

    def test_blacklist_spans_tenants(self):
        """A key that failed BLACKLIST_AFTER times, whichever tenants
        submitted it, is refused for every tenant: a poisoned unit stops
        recompiling fleet-wide. Other keys still run."""
        server = self.drain_server()
        try:
            errors = []

            def broken():
                raise CompilationError("poisoned")

            for i in range(daemon.BLACKLIST_AFTER):
                req = server.submit("k", broken, tenant="vm%d" % i,
                                    on_error=errors.append)
                assert not req.rejected
                server.drain()
                assert req.state == "failed"
            assert errors == ["poisoned"] * daemon.BLACKLIST_AFTER
            late = server.submit("k", lambda: "fixed", tenant="late")
            assert late.rejected and late.error == "blacklisted"
            s = server.stats()
            assert s["blacklisted"] == [repr("k")]
            assert s["failed"] == daemon.BLACKLIST_AFTER
            ok = server.submit("other", lambda: "ok", tenant="late")
            server.drain()
            assert ok.wait(0) == "ok"
        finally:
            server.close()

    def test_counters_hold_under_thread_contention(self):
        """More workers and submitters than cores, with a short switch
        interval: every request finishes, and the done/failed counters
        and the failure blacklist lose no update."""
        import sys
        server = CompileServer(workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reqs = []

            def broken():
                raise CompilationError("poisoned")

            def submitter(t):
                for i in range(20):
                    fn = broken if i % 5 == 0 else (lambda: "ok")
                    reqs.append(server.submit(
                        ("t%d" % t, i), fn, tenant="vm%d" % t))
                    reqs.append(server.submit(
                        ("t%d" % t, "poison"), broken, tenant="vm%d" % t))

            threads = [threading.Thread(target=submitter, args=(t,))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
            for r in reqs:
                r.wait(10.0)
                assert r.finished
            s = server.stats()
            done = sum(r.state == "done" for r in reqs)
            failed = sum(r.state == "failed" for r in reqs)
            assert s["completed"] == done > 0
            assert s["failed"] == failed
            assert s["rejected"] == sum(r.rejected for r in reqs)
            assert done + failed + s["rejected"] == len(reqs)
            poisoned = sorted(repr(("t%d" % t, "poison")) for t in range(6))
            assert s["blacklisted"] == poisoned
        finally:
            sys.setswitchinterval(interval)
            server.close()


# -- cross-VM dedup -----------------------------------------------------------


class TestCrossVMDedup:
    def test_coordinate_single_flight_across_threads(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            expensive = []
            warm = threading.Event()

            def load_or_build(tag):
                if warm.is_set():
                    return "rehydrate-%s" % tag
                expensive.append(tag)
                time.sleep(0.05)        # the "compile"
                warm.set()
                return "compile-%s" % tag

            results = {}

            def tenant(tag):
                results[tag] = server.coordinate(
                    "f" * 64, lambda: load_or_build(tag), tenant=tag)

            threads = [threading.Thread(target=tenant, args=("t%d" % i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # One compile; everyone else waited and rehydrated.
            assert len(expensive) == 1
            assert len(results) == 4
            assert server.stats()["dedup_waits"] == 3
        finally:
            server.close()

    def test_duplicate_promotions_compile_once_through_the_store(
            self, tmp_path):
        """Two VMs queue the same promotion key. The second request is
        an ordinary one: it runs after the first, whose unit is in the
        shared store by then, so it rehydrates instead of compiling."""
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            jits = [make_jit(server, tier1_threshold=1, tier2_threshold=100)
                    for _ in range(2)]
            tfs = [j.compile_tiered("Main", "work") for j in jits]
            for tf in tfs:
                assert tf(10) == EXPECTED_WORK_10   # queues the promotion
            assert server.stats()["queue_depth"] == 2
            assert server.drain() == 2
            compiles = [j.telemetry.metrics.get("compiles") for j in jits]
            assert compiles == [1, 0]
            assert jits[1].stats()["codecache"]["hits"] >= 1
            assert [tf.tier for tf in tfs] == [1, 1]
            assert tfs[0].compiled is not tfs[1].compiled
            interpreted = jits[0].vm.call("Main", "work", [7])
            assert [tf(7) for tf in tfs] == [interpreted, interpreted]
            for j in jits:
                j.close()
        finally:
            server.close()

    def test_whole_fleet_compiles_once(self, tmp_path):
        """The headline property: N tenants compiling the same unit cost
        the fleet ONE compile; the rest are warm loads."""
        server = CompileServer(cache_dir=tmp_path / "cc", workers=2)
        try:
            compiles = []

            def tenant(idx):
                j = make_jit(server)
                f = j.compile_function("Main", "work")
                assert f(10) == EXPECTED_WORK_10
                compiles.append(j.telemetry.metrics.get("compiles"))
                j.close()

            threads = [threading.Thread(target=tenant, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert server.store.stats()["entries"] == 1
            assert sum(compiles) <= 2   # ~1; tolerate one race straggler
        finally:
            server.close()


# -- a tenant VM and its server ----------------------------------------------


class TestAttachedServer:
    def test_stats_expose_server_section(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            j = make_jit(server)
            st = j.stats()["server"]
            assert not st["closed"]
            assert st["tenant"] in st["tenants"]
            assert st["fallbacks"] == 0
            assert st["store"]["shards"] == 8
            j.close()
        finally:
            server.close()

    def test_codecache_stats_count_each_tenants_own_lookups(self, tmp_path):
        """A tenant's ``stats()["codecache"]`` counts its own lookups
        and stores; the shared store's fleet-wide counters stay under
        ``stats()["server"]["store"]``."""
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            cold, warm = make_jit(server), make_jit(server)
            assert cold.compile_function("Main", "work")(10) \
                == EXPECTED_WORK_10
            assert warm.compile_function("Main", "work")(10) \
                == EXPECTED_WORK_10
            assert [j.telemetry.metrics.get("compiles")
                    for j in (cold, warm)] == [1, 0]
            views = [j.stats()["codecache"] for j in (cold, warm)]
            assert [(v["hits"], v["misses"], v["stores"])
                    for v in views] == [(0, 1, 1), (1, 0, 0)]
            assert all(v["shared"] for v in views)
            store = warm.stats()["server"]["store"]
            assert (store["hits"], store["misses"], store["stores"]) \
                == (1, 1, 1)
            for j in (cold, warm):
                j.close()
        finally:
            server.close()

    def test_async_compiler_prefers_live_server(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        j = Lancet(options=CompileOptions(compile_workers=1))
        try:
            owned = j.compile_server
            assert j.async_compiler is owned
            assert j.attach_compile_server(server) is server
            assert owned.closed             # the private server is gone
            assert j.async_compiler is server
            server.close()
            # Server closed: compiles turn synchronous, counted.
            assert j.async_compiler is None
            assert j.telemetry.metrics.get("server.fallback") == 1
        finally:
            server.close()
            j.close()

    def test_closed_server_promotes_synchronously(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        j = make_jit(server, tier1_threshold=1, tier2_threshold=100)
        try:
            tf = j.compile_tiered("Main", "work")
            server.close()
            assert tf(10) == EXPECTED_WORK_10
            assert tf.tier == 1             # promoted on this very call
            assert j.telemetry.metrics.get("compiles") == 1
            assert j.stats()["server"]["fallbacks"] == 1
            assert server.stats()["submits"] == 0
        finally:
            j.close()

    def test_submit_rejects_when_dead(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        j = make_jit(server)
        server.close()
        req = j.compile_server.submit("k", lambda: 1)
        assert req.rejected
        j.close()

    def test_coordinate_runs_locally_when_dead(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        j = make_jit(server)
        server.close()
        assert j.compile_server.coordinate("a" * 64, lambda: "inline") \
            == "inline"
        j.close()

    def test_close_detaches_from_shared_server(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=0)
        try:
            j = make_jit(server)
            j.close()
            assert j.compile_server is None
            assert not server.closed        # shared: outlives its tenant
        finally:
            server.close()

    def test_env_auto_attach(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_SERVER", str(tmp_path / "cc"))
        try:
            j = Lancet()
            assert j.compile_server is not None
            assert isinstance(j.codecache, ShardedCodeCache)
            j2 = Lancet()
            # Same directory -> same process-wide server, new tenant.
            assert j2.compile_server is j.compile_server
            assert j2.compile_tenant != j.compile_tenant
            j.close()
            j2.close()
        finally:
            close_shared_servers()

    def test_tier_promotion_routes_through_server(self, tmp_path):
        server = CompileServer(cache_dir=tmp_path / "cc", workers=2)
        try:
            j = make_jit(server, tier1_threshold=2, tier2_threshold=4)
            tf = j.compile_tiered("Main", "work")
            for _ in range(8):
                assert tf(10) == EXPECTED_WORK_10
            deadline = time.monotonic() + 5.0
            while tf.tier < 2 and time.monotonic() < deadline:
                tf(10)
                time.sleep(0.01)
            assert tf.tier == 2
            assert server.stats()["completed"] >= 1
            j.close()
        finally:
            server.close()


# -- per-kind hit/miss breakdown (satellite) ----------------------------------


class TestByKindStats:
    def test_unit_and_baseline_kinds_attributed(self, tmp_path):
        cache = str(tmp_path / "cc")
        j1 = make_jit(None, cache_dir=cache)
        j1.compile_function("Main", "work")(10)
        j1.close()
        j2 = make_jit(None, cache_dir=cache)
        j2.compile_function("Main", "work")(10)
        by_kind = j2.stats()["codecache"]["by_kind"]
        assert by_kind["unit"]["hits"] >= 1
        j2.close()
        # A cold dir shows the misses side.
        j3 = make_jit(None, cache_dir=str(tmp_path / "cold"))
        j3.compile_function("Main", "work")(10)
        by_kind = j3.stats()["codecache"]["by_kind"]
        assert by_kind["unit"]["misses"] >= 1
        j3.close()


# -- the shared-server registry -----------------------------------------------


class TestSharedRegistry:
    def test_same_dir_same_server(self, tmp_path):
        try:
            a = shared_server(str(tmp_path / "cc"))
            b = shared_server(str(tmp_path / "cc"))
            c = shared_server(str(tmp_path / "other"))
            assert a is b
            assert a is not c
        finally:
            close_shared_servers()

    def test_closed_server_is_replaced(self, tmp_path):
        try:
            a = shared_server(str(tmp_path / "cc"))
            a.close()
            b = shared_server(str(tmp_path / "cc"))
            assert b is not a
            assert not b.closed
        finally:
            close_shared_servers()
