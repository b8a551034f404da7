"""Persistent code cache: compiled units that outlive a process.

The paper's code caches (``makeJIT``/``makeHOT``, §3.1) are in-memory,
so every process pays full warmup. :class:`PersistentCodeCache` is an
on-disk, integrity-checked store of generated backend source + metadata
per compilation unit, keyed by a content fingerprint (guest bytecode
hash × CompileOptions × macro-registry version × tier × backend).
Entries carry a format version and a sha256 checksum; a corrupt or
truncated entry is *quarantined* and treated as a clean miss — the
cache never crashes a compile. A size budget is enforced by LRU
eviction (file mtime is the recency clock; hits ``touch`` their entry).

Background compilation lives in :mod:`repro.server`. See DESIGN.md
("Persistent caching & the compile service") for why the macro-registry
version must be part of the cache key.
"""

from repro.codecache.fingerprint import (macro_fingerprint,
                                         options_signature,
                                         program_fingerprint,
                                         unit_fingerprint)
from repro.codecache.store import FORMAT_VERSION, PersistentCodeCache

__all__ = [
    "PersistentCodeCache", "FORMAT_VERSION",
    "unit_fingerprint", "program_fingerprint", "options_signature",
    "macro_fingerprint",
]
