"""Content fingerprints for persistent cache keys.

A persisted unit may be reused only when *everything* that shaped its
generated code is unchanged. The fingerprint therefore covers:

* the **guest program** — every loaded class's fields, @stable marks,
  and method bytecode. The staged compiler inlines and specializes
  across method boundaries, so the hash is over the whole loaded class
  set, not just the entry method: sound (any program edit invalidates)
  at the cost of some precision.
* the **unit identity** — qualified name, arity, staticness.
* the **CompileOptions** — every codegen-relevant knob (tier included).
  Service/cache plumbing fields (``cache_dir``, ``compile_workers``,
  ``persist``, ``unit_cache``) and the trace-tier switch and counters
  are excluded: they select machinery or timing, not code shape.
* the **macro-registry version** — macros rewrite call sites at staging
  time, changing generated code without changing guest bytecode (see
  DESIGN.md), so registry churn must miss.
* the **backend** name.

The program hash is the expensive part (it renders every loaded class),
so :func:`program_fingerprint` memoizes it per ``Linker.version``.
**Version rule:** the linker bumps ``version`` after every mutation of
the fingerprinted state (``load_classes`` and ``mark_stable_field``
are the only two today); any new code path that changes loaded classes,
their fields or bytecode, or a ``stable_fields`` set must bump it too,
or warm starts will be served units keyed by a stale program.
"""

from __future__ import annotations

import dataclasses
import hashlib

#: CompileOptions fields that do not influence generated code. The
#: trace-tier policy counters only decide *when* recording/stitching
#: happens, not what a recorded trace compiles to; the recording shape
#: limit (trace_max_ops) stays in the signature.
_NON_CODEGEN_FIELDS = frozenset({
    "unit_cache", "cache_dir", "persist", "compile_workers",
    "trace_tier", "trace_threshold", "bridge_threshold",
    "trace_exit_budget",
})


def _h(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "backslashreplace"))
        digest.update(b"\x00")
    return digest.hexdigest()


def program_fingerprint(linker):
    """Hash the whole loaded class set (sorted, canonical rendering),
    memoized on the linker per ``linker.version``."""
    # Read the version before hashing: a mutation racing this hash
    # bumps past it, so a digest is never tagged with a newer version
    # than the state it rendered.
    version = linker.version
    memo_version, digest = linker.fingerprint_memo
    if memo_version == version:
        return digest
    digest = _render_program(linker)
    linker.fingerprint_memo = (version, digest)
    return digest


def _render_program(linker):
    parts = []
    for name in sorted(linker.classes):
        rt = linker.classes[name]
        cf = rt.classfile
        parts.append("class %s super=%s" % (name, cf.super_name))
        parts.append("stable=%s" % ",".join(sorted(rt.stable_fields)))
        for fname in sorted(cf.fields):
            f = cf.fields[fname]
            parts.append("field %s val=%r" % (fname, f.is_val))
        for mname in sorted(cf.methods):
            m = cf.methods[mname]
            parts.append("method %s/%d static=%r locals=%d"
                         % (mname, m.num_params, m.is_static, m.num_locals))
            for ins in m.code:
                parts.append("%s %r" % (ins.op.name, ins.arg))
    return _h(parts)


def options_signature(options):
    """Canonical string of the codegen-relevant CompileOptions fields."""
    parts = []
    for field in dataclasses.fields(options):
        if field.name in _NON_CODEGEN_FIELDS:
            continue
        parts.append("%s=%r" % (field.name, getattr(options, field.name)))
    return ";".join(parts)


def macro_fingerprint(registry):
    return registry.version


def _key_parts(jit, identity, options, backend):
    """The parts every persistent-cache key shares, after the unit's own
    identity line: program, options, macros and backend."""
    return [
        identity,
        "program %s" % program_fingerprint(jit.vm.linker),
        "options %s" % options_signature(options),
        "macros %s" % macro_fingerprint(jit.macros),
        "backend %s" % backend,
    ]


def unit_fingerprint(jit, method, options, backend="python", kind="unit"):
    """The persistent-cache key for one static compilation unit.

    ``kind`` separates representations that share every other input:
    a ``baseline`` unit persists a marshaled CPython code object, so its
    key additionally covers the host bytecode magic — a cached entry
    from another CPython must read as a miss, not a corrupt entry.
    """
    parts = _key_parts(jit, "%s %s/%d static=%r"
                       % (kind, method.qualified_name, method.num_params,
                          method.is_static), options, backend)
    if kind == "baseline":
        import importlib.util
        parts.append("magic %s" % importlib.util.MAGIC_NUMBER.hex())
    return _h(parts)


def trace_fingerprint(jit, method, header_bci, options, backend="python"):
    """The persistent-cache key for a loop-trace unit: a method unit key
    plus the loop-header bci (one method can anchor several traces)."""
    return _h(_key_parts(jit, "trace %s/%d@%d static=%r"
                         % (method.qualified_name, method.num_params,
                            header_bci, method.is_static),
                         options, backend))
