"""The Backend protocol: emit a unit from post-pipeline IR + metas.

Every code generator — Python (the JIT's "native code"), JavaScript, and
SQL — consumes one canonical optimized :class:`CompileResult` produced
by the PassManager. No backend re-walks or re-cleans blocks itself;
fusion/DCE happen exactly once, upstream.

``get_backend(name)`` resolves a registered backend; the JS and SQL
implementations live with their renderers in :mod:`repro.backends` and
are imported lazily to keep this layer dependency-free.
"""

from __future__ import annotations

import abc
import dataclasses


@dataclasses.dataclass
class CompilationUnit:
    """Everything a backend needs to emit one unit: the post-pipeline IR
    (``result`` — blocks, entry, metas, statics) plus emit context."""

    result: object                 # CompileResult after the PassManager
    name: str = "unit"
    jit: object = None             # owning Lancet (None for pure renderers)
    recompile: object = None       # rebuild closure for invalidation
    report: object = None          # CompileReport to fill in
    options: object = None         # CompileOptions the unit compiled under

    @property
    def param_names(self):
        return self.result.param_names

    @property
    def metas(self):
        return self.result.metas


class Backend(abc.ABC):
    """A code generator consuming canonical post-pipeline IR."""

    #: registry key, e.g. ``"python"``.
    name = None

    @abc.abstractmethod
    def emit(self, unit, **kwargs):
        """Emit ``unit`` (a :class:`CompilationUnit`). The return type is
        backend-specific: a callable ``CompiledFunction`` for Python,
        source text for JS, an expression string for SQL."""


def python_runtime_hooks(jit, metas):
    """The four runtime re-entry closures every generated Python unit
    links against (virtual/method calls back into the interpreter,
    continuation reification, OSR recompilation). Shared by the fresh
    codegen path and the persistent-cache reload path."""
    from repro.compiler.compiled import ContinuationClosure

    vm = jit.vm

    def callv(recv, mname, args):
        return vm.call_virtual(recv, mname, args)

    def callm(method, recv, args):
        return vm.invoke_method(method, recv, args)

    def mkcont(meta_id, lives):
        return ContinuationClosure(vm, metas[meta_id], list(lives))

    def osr(meta_id, lives):
        return jit._osr_execute(metas[meta_id], lives)

    return callv, callm, mkcont, osr


class PythonBackend(Backend):
    """The execution backend: renders the CFG to Python source, compiles
    it with ``exec``, and wraps it with guard/deopt handling."""

    name = "python"

    def emit(self, unit, **kwargs):
        import time

        from repro.compiler.compiled import CompiledFunction
        from repro.lms.codegen_py import PyCodegen

        jit = unit.jit
        result = unit.result
        metas = result.metas
        codegen = PyCodegen(jit.vm, result.statics, metas)
        callv, callm, mkcont, osr = python_runtime_hooks(jit, metas)

        t0 = time.perf_counter()
        fn, source = codegen.generate(result.blocks, result.entry_bid,
                                      result.param_names, callv, callm,
                                      mkcont, osr, optimize=False)
        report = unit.report
        if report is not None:
            report.phases["codegen"] = time.perf_counter() - t0
            report.blocks = len(result.blocks)
            report.stmts = sum(len(b.stmts)
                               for b in result.blocks.values())
        tel = jit.telemetry
        if codegen.fallback is not None:
            tel.inc("codegen.unstructured")
        tel.record("compile.phase", unit=unit.name, phase="codegen",
                   structured=codegen.fallback is None,
                   fallback=codegen.fallback)
        compiled = CompiledFunction(jit, fn, source, metas,
                                    recompile=unit.recompile,
                                    name=unit.name,
                                    warnings=result.warnings)
        compiled.ir = result   # post-pipeline IR, for introspection
        # Persistence bookkeeping: which natives the source links against
        # (re-resolved by name on reload) and anything process-private
        # that makes the source non-persistable.
        compiled.native_refs = dict(codegen.native_refs)
        compiled.persist_blockers = list(codegen.persist_blockers)
        return compiled


_REGISTRY = {}


def register_backend(cls):
    """Class decorator: register a Backend implementation by its name."""
    _REGISTRY[cls.name] = cls
    return cls


register_backend(PythonBackend)


def get_backend(name):
    """Resolve a backend by name (``python`` | ``js`` | ``sql``)."""
    if name not in _REGISTRY:
        # The cross-compilers register themselves on import.
        if name == "js":
            import repro.backends.javascript  # noqa: F401
        elif name == "sql":
            import repro.backends.sql  # noqa: F401
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError("no such backend %r (have: %s)"
                         % (name, ", ".join(sorted(_REGISTRY))))
