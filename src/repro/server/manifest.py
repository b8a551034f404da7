"""Warm-start manifests: record a fleet's compiled shape, replay it.

A manifest is the recipe for a warm cache, not the cache itself: it
records the guest sources a VM had loaded and the (class, method, tier)
units it compiled, plus the content fingerprints those units hashed to.
``repro serve --warm manifest.json`` replays the recipe into a fresh
sharded store — every unit is recompiled once (or skipped when the
store already holds its fingerprint), so a brand-new fleet's first
tenant already gets zero-compile warm starts.

Why replay instead of shipping entry files? Fingerprints cover the
whole loaded class set, the CompileOptions, the macro registry, and
(for baseline units) the host bytecode magic — a copied entry that no
longer matches any of those is dead weight, while a replayed compile
always lands under the key the *current* build will look up.
"""

from __future__ import annotations

import json

MANIFEST_VERSION = 1

#: Unit names that are not replayable static units: OSR continuations
#: and trace/bridge units are anchored to live execution state.
_SKIP_MARKERS = ("@",)


def build_manifest(jit):
    """Snapshot ``jit``'s loaded sources and compiled units as a
    replayable manifest dict."""
    units = []
    seen = set()
    for name, compiled in jit.compile_log:
        if any(marker in name for marker in _SKIP_MARKERS):
            continue        # osr@/trace@ units: not statically replayable
        if "." not in name:
            continue
        cls, method = name.rsplit(".", 1)
        tier = getattr(compiled, "tier", None)
        if tier not in (1, 2):
            continue
        key = (cls, method, tier)
        if key in seen:
            continue
        seen.add(key)
        units.append({"cls": cls, "method": method, "tier": tier})
    fingerprints = sorted(
        fp for fp in (getattr(compiled, "persist_key", None)
                      for _name, compiled in jit.compile_log)
        if fp)
    return {
        "version": MANIFEST_VERSION,
        "sources": [[source, module]
                    for source, module in getattr(jit, "loaded_sources", [])],
        "units": units,
        "fingerprints": fingerprints,
    }


def write_manifest(jit, path):
    manifest = build_manifest(jit)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def load_manifest(path_or_dict):
    if isinstance(path_or_dict, dict):
        return path_or_dict
    with open(path_or_dict, encoding="utf-8") as f:
        return json.load(f)


def warm_from_manifest(manifest, store, options=None, telemetry=None):
    """Replay ``manifest`` into ``store``: compile every recorded unit
    at its recorded tier inside a scratch VM whose persistent cache *is*
    the shared store. Units whose fingerprint the store already holds
    rehydrate instead of compiling (their store is a no-op overwrite is
    avoided by the warm-start lookup). Returns a summary dict; per-unit
    failures are collected, never raised — a stale manifest must not
    take prewarming down."""
    from repro.jit.api import Lancet
    from repro.pipeline.tiers import tier_options

    manifest = load_manifest(manifest)
    if manifest.get("version") != MANIFEST_VERSION:
        return {"units": 0, "compiled": 0, "warm_hits": 0,
                "errors": ["manifest version %r != %d"
                           % (manifest.get("version"), MANIFEST_VERSION)]}
    jit = Lancet(options=options, telemetry=telemetry)
    # The scratch VM persists straight into the shared sharded store; any
    # compile server is dropped (warming IS the server side).
    jit.close()
    jit.codecache = store
    # The store's counters live in *its* telemetry (the server's), not
    # the scratch VM's: snapshot them so the summary reports deltas.
    store_m = getattr(store, "telemetry", None)
    store_m = store_m.metrics if store_m is not None else None

    def _store_count(name):
        return store_m.get(name) if store_m is not None else 0

    hits_before = _store_count("codecache.hits")
    stores_before = _store_count("codecache.stores")
    errors = []
    for entry in manifest.get("sources", []):
        try:
            source, module = entry
            jit.load(source, module=module)
        except Exception as exc:
            errors.append("load %r: %s" % (entry[1:], exc))
    compiled_before = jit.telemetry.metrics.get("compiles")
    done = 0
    for unit in manifest.get("units", []):
        try:
            opts = tier_options(jit.options, unit["tier"])
            jit.compile_function(unit["cls"], unit["method"], options=opts)
            done += 1
        except Exception as exc:
            errors.append("%s.%s@tier%s: %s"
                          % (unit.get("cls"), unit.get("method"),
                             unit.get("tier"), exc))
    m = jit.telemetry.metrics
    summary = {
        "units": done,
        "compiled": m.get("compiles") - compiled_before,
        "warm_hits": _store_count("codecache.hits") - hits_before,
        "stored": _store_count("codecache.stores") - stores_before,
        "errors": errors,
    }
    jit.close()
    return summary
