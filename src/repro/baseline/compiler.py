"""The baseline compile: translate → assemble → bind.

``compile_baseline`` turns a static guest method into a callable
:class:`BaselineFunction` in three cheap phases (each timed under a
``baseline.*`` key in the unit's CompileReport):

* **translate** — walk the guest bytecode once, emitting host
  instructions from the per-opcode templates;
* **assemble** — resolve labels/EXTENDED_ARGs and build the
  :class:`types.CodeType`;
* **bind** — close the code object over the runtime-helper namespace.

There is no staging, no PassManager, and no source text: the unit *is*
the code object, which is why baseline units marshal into the
persistent code cache and why compile latency sits orders of magnitude
under the staged tier-1 path (benchmarks/test_warmup.py holds the
ROADMAP's ≥10× line).
"""

from __future__ import annotations

import time
import types

from repro.compiler.compiled import CompiledFunction
from repro.errors import GuestTypeError, LinkError, ReproError
from repro.interp.handlers import OPSPECS
from repro.observability import CompileReport
from repro.runtime.natives import lookup_native
from repro.runtime.objects import Obj, new_instance
from repro.baseline.pyasm import SUPPORTED
from repro.baseline.templates import translate_method


def baseline_supported():
    """Whether this CPython can host template-compiled baseline code."""
    return SUPPORTED


class BaselineUnsupported(ReproError):
    """This unit (or this CPython) cannot take the baseline path; the
    caller falls back to the staged tier-1 compile."""


def baseline_namespace(jit, method):
    """The globals dict a baseline unit runs against: the shared
    :mod:`repro.runtime.ops` helpers (by their own names, so the code
    object's name table reads like the handler table) plus the six
    VM-bridge helpers the templates emit."""
    vm = jit.vm
    ns = {"__builtins__": {}}
    for spec in OPSPECS.values():
        ns[spec.helper.__name__] = spec.helper

    def _new(cls_name):
        return new_instance(vm.linker.resolve_class(cls_name))

    def _callv(receiver, name, args):
        # Mirrors Interpreter._invoke_virtual, run to completion.
        if isinstance(receiver, Obj):
            m = receiver.cls.lookup_method(name)
            if m is None:
                if name == "init" and not args:
                    return None     # ctor-less `new`
                raise LinkError("no method %s on %s"
                                % (name, receiver.cls.name))
            if m.is_static:
                raise GuestTypeError("%s is static" % m.qualified_name)
            if vm.profile:
                vm.profiler.count_invoke(m)
            return vm.invoke_method(m, receiver, list(args))
        return vm.call_virtual(receiver, name, args)

    def _calls(cls_name, name, args):
        # Mirrors Interpreter._invoke_static, run to completion.
        nat = lookup_native(cls_name, name)
        if nat is not None:
            if nat.argc != len(args):
                raise GuestTypeError("%s.%s expects %d args, got %d"
                                     % (cls_name, name, nat.argc, len(args)))
            if vm.profile:
                vm.profiler.count_native(cls_name, name)
            return nat.fn(vm, *args)
        m = vm.linker.resolve_static(cls_name, name)
        if vm.profile:
            vm.profiler.count_invoke(m)
        return vm.invoke_method(m, None, list(args))

    def _enter():
        # Invocation profiling: the interpreter counts callees in
        # _push_call; baseline units count themselves on entry so
        # 1->2 promotion still sees their heat.
        if vm.profile:
            vm.profiler.count_invoke(method)

    def _be(target):
        # Back-edge profiling + OSR polling; True takes the OSR exit.
        if not vm.profile:
            return False
        vm.profiler.count_backedge(method, target)
        controller = getattr(jit, "tiers", None)
        if controller is None or not controller.armed:
            return False
        return controller.on_baseline_backedge(vm, method, target)

    def _osr(target, local_values):
        return jit.tiers.osr_from_baseline(vm, method, target, local_values)

    ns.update(_new=_new, _callv=_callv, _calls=_calls,
              _enter=_enter, _be=_be, _osr=_osr)
    return ns


class BaselineFunction(CompiledFunction):
    """A template-compiled tier-1 unit.

    Quacks like every other CompiledFunction (callable, invalidation,
    recompile, reports) but owns a raw code object instead of generated
    source; ``source`` renders a disassembly on demand so ``--show-code``
    and the reflective API keep working.
    """

    kind = "baseline"

    def __init__(self, jit, fn, method, code_object, recompile=None,
                 name="unit", warnings=()):
        super().__init__(jit, fn, None, [], recompile=recompile,
                         name=name, warnings=warnings)
        self.method = method
        self.code_object = code_object

    @property
    def source(self):
        if self._source is None and self.code_object is not None:
            import dis
            import io
            buf = io.StringIO()
            dis.dis(self.code_object, file=buf)
            self._source = ("# baseline CPython bytecode for %s\n%s"
                            % (self.name, buf.getvalue()))
        return self._source

    @source.setter
    def source(self, value):
        self._source = value

    def recompile(self):
        if self._recompile is None:
            raise RuntimeError("%s cannot be recompiled" % self.name)
        fresh = self._recompile()
        self.fn = fresh.fn
        self.metas = fresh.metas
        self.warnings = fresh.warnings
        self._adopt_stable_deps(fresh)
        # The rebuild may legitimately come back staged (e.g. options
        # changed under us); keep whichever representation it has.
        self.code_object = getattr(fresh, "code_object", None)
        self._source = None if self.code_object is not None \
            else fresh.source
        self.valid = True
        self.invalidated_reason = None
        self.compile_count += 1
        return self

    def __repr__(self):
        state = "valid" if self.valid else "invalidated"
        return "<BaselineFunction %s (%s)>" % (self.name, state)


def compile_baseline(jit, method, options=None, recompile=None, name=None):
    """Template-compile one static guest method at Tier 1.

    Raises :class:`BaselineUnsupported` when the unit cannot take this
    path (instance method, or a CPython whose bytecode the assembler
    does not target); the caller falls back to the staged compile.
    """
    if not SUPPORTED:
        raise BaselineUnsupported("baseline templates target CPython 3.11")
    if not method.is_static:
        raise BaselineUnsupported("baseline compiles static methods only")
    options = options if options is not None else jit.options
    name = name or method.qualified_name
    tel = jit.telemetry
    tel.record("compile.start", unit=name, tier=options.tier, baseline=True)
    t_start = time.perf_counter()
    report = CompileReport(name=name, tier=options.tier)

    t0 = time.perf_counter()
    asm, varnames, stacksize = translate_method(method)
    report.phases["baseline.translate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    code = asm.assemble(method.num_params, varnames, stacksize,
                        name=name)
    report.phases["baseline.assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fn = types.FunctionType(code, baseline_namespace(jit, method), name)
    report.phases["baseline.bind"] = time.perf_counter() - t0

    compiled = BaselineFunction(jit, fn, method, code,
                                recompile=recompile, name=name)
    compiled.report = report
    compiled.tier = options.tier
    jit.compile_log.append((name, compiled))

    total = time.perf_counter() - t_start
    tel.inc("compiles")
    tel.inc("compiles.tier%d" % options.tier)
    tel.observe("compile.tier%d.total" % options.tier, total)
    tel.observe("compile.baseline.total", total)
    tel.observe("compile.total", total)
    for phase, seconds in report.phases.items():
        tel.observe("compile.phase.%s" % phase, seconds)
    tel.record("compile.end", unit=name, tier=options.tier, seconds=total,
               baseline=True, host_bytes=len(code.co_code))
    return compiled
