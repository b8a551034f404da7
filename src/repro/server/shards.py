"""The sharded content-addressed code cache.

One :class:`~repro.codecache.store.PersistentCodeCache` is a single
directory with a single LRU budget — correct for one VM, a serialization
point for a fleet. :class:`ShardedCodeCache` splits the fingerprint
space over N shards (subdirectories ``shard-00`` ... ``shard-NN``, keyed
by the first fingerprint byte), each an ordinary PersistentCodeCache
with its own slice of the byte budget and its own store lock:

* **loads are lock-free** — the underlying store already tolerates
  concurrent readers (atomic writes, checksum-verified reads), so warm
  hits from many tenant threads never contend;
* **stores serialize per shard**, not globally — the store lock only
  exists to keep budget enforcement from stampeding when several
  tenants persist at once, and two stores to different shards proceed
  in parallel;
* the **budget divides evenly** across shards. Content fingerprints are
  sha256 hex, so the first byte is uniform and the per-shard budgets
  see balanced load.

The class mirrors the PersistentCodeCache surface (``fingerprint`` /
``load`` / ``store`` / ``invalidate`` / ``stats``), so a Lancet can use
it directly as its ``codecache`` — that is exactly what
``attach_compile_server`` does: every attached tenant shares the
server's sharded store, and a unit persisted by one tenant is a warm
hit for every other.
"""

from __future__ import annotations

import hashlib
import os
import threading

from repro.codecache.fingerprint import unit_fingerprint
from repro.codecache.store import PersistentCodeCache

#: Default shard count: enough that 8-16 concurrent tenants rarely
#: collide on a store lock, few enough that directory fan-out stays
#: readable.
DEFAULT_SHARDS = 8


class ShardedCodeCache:
    """N persistent-cache shards behind one fingerprint-keyed facade."""

    def __init__(self, root, shards=DEFAULT_SHARDS, budget_bytes=64 << 20,
                 telemetry=None, backend="python"):
        self.root = os.path.abspath(root)
        self.n_shards = max(1, int(shards))
        self.budget_bytes = budget_bytes
        self.telemetry = telemetry
        self.backend = backend
        per_shard = (None if budget_bytes is None
                     else max(1, budget_bytes // self.n_shards))
        self.shards = [
            PersistentCodeCache(
                os.path.join(self.root, "shard-%02d" % i),
                budget_bytes=per_shard, telemetry=telemetry,
                backend=backend)
            for i in range(self.n_shards)
        ]
        self._locks = [threading.Lock() for _ in range(self.n_shards)]

    @property
    def enabled(self):
        return any(s.enabled for s in self.shards)

    # -- keys ------------------------------------------------------------------

    def fingerprint(self, jit, method, options, kind="unit"):
        return unit_fingerprint(jit, method, options, backend=self.backend,
                                kind=kind)

    def _shard_index(self, fingerprint):
        try:
            return int(fingerprint[:2], 16) % self.n_shards
        except (ValueError, TypeError):
            # Non-hex key (tests, exotic fingerprints): must map to the
            # same shard in every process sharing the store on disk, so
            # no built-in hash() (randomized by PYTHONHASHSEED).
            digest = hashlib.sha256(str(fingerprint).encode("utf-8"))
            return int(digest.hexdigest()[:8], 16) % self.n_shards

    def shard_for(self, fingerprint):
        return self.shards[self._shard_index(fingerprint)]

    # -- the PersistentCodeCache surface ---------------------------------------

    def load(self, fingerprint, jit, recompile=None, kind="unit"):
        """Lock-free warm-start lookup in the owning shard."""
        return self.shard_for(fingerprint).load(fingerprint, jit,
                                                recompile=recompile,
                                                kind=kind)

    def store(self, fingerprint, compiled, options):
        """Persist into the owning shard, under its store lock (budget
        enforcement must not race another store to the same shard)."""
        idx = self._shard_index(fingerprint)
        with self._locks[idx]:
            return self.shards[idx].store(fingerprint, compiled, options)

    def invalidate(self, fingerprint, reason="invalidated"):
        idx = self._shard_index(fingerprint)
        with self._locks[idx]:
            return self.shards[idx].invalidate(fingerprint, reason=reason)

    # -- stats -----------------------------------------------------------------

    def stats(self):
        """Aggregate of the per-shard stats; counter totals come from the
        shared telemetry (all shards feed the same Metrics registry)."""
        shard_stats = [s.stats() for s in self.shards]
        agg = {
            "enabled": self.enabled,
            "dir": self.root,
            "shards": self.n_shards,
            "entries": sum(s["entries"] for s in shard_stats),
            "size_bytes": sum(s["size_bytes"] for s in shard_stats),
            "budget_bytes": self.budget_bytes,
            "entries_per_shard": [s["entries"] for s in shard_stats],
        }
        # One shard's counter view is the whole store's: every shard
        # shares self.telemetry, so the counts are already aggregated.
        for key, value in shard_stats[0].items():
            if key not in ("enabled", "dir", "entries", "size_bytes",
                           "budget_bytes"):
                agg.setdefault(key, value)
        return agg
