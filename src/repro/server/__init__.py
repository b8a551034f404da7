"""Compile-server scale-out: one compile, every tenant benefits.

The paper's surgical-precision JITs pay their compile cost once per
program *shape*; a fleet of Lancet VMs running the same program should
pay it once per **fleet**. This package is that economics, built on
content-addressed fingerprints (bit-identical units across tenants hash
to the same key):

* :mod:`repro.server.shards` — :class:`ShardedCodeCache`, N persistent
  code-cache shards keyed by fingerprint prefix so concurrent tenants
  don't serialize on one store;
* :mod:`repro.server.daemon` — :class:`CompileServer`, the one
  asynchronous compile queue, private to a VM or shared by many: the
  shared store, synchronous cross-VM dedup (``coordinate``), bounded
  queues with shed-lowest-first backpressure and failure blacklisting,
  and tenant round-robin.

Attach with ``jit.attach_compile_server(server)`` or process-wide via
``REPRO_COMPILE_SERVER=<cache-dir>``.
"""

from repro.server.daemon import (PRIORITY_OSR, PRIORITY_TIER1,
                                 PRIORITY_TIER2, CompileRequest,
                                 CompileServer, close_shared_servers,
                                 shared_server)
from repro.server.shards import ShardedCodeCache

__all__ = [
    "CompileRequest",
    "CompileServer",
    "PRIORITY_OSR",
    "PRIORITY_TIER1",
    "PRIORITY_TIER2",
    "ShardedCodeCache",
    "close_shared_servers",
    "shared_server",
]
