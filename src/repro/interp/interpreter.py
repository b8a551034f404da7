"""The MiniJVM bytecode interpreter (paper Fig. 6).

Structure follows the Graal-derived interpreter the paper starts from: a
CESK-style machine whose control, bindings and continuation live in a chain
of :class:`InterpreterFrame` objects (``globalFrame``), with the store
modeled by the host heap. ``exec`` switches the current frame; ``loop``
executes instructions until the root frame returns.

The interpreter doubles as the VM facade: it owns the linker, the output
sink, the optional JIT (installed by :class:`repro.jit.api.Lancet`), and it
is resumable at an arbitrary (frame chain, bci) — the capability
deoptimization relies on.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.errors import (GuestError, GuestThrow,  # noqa: F401 (re-export)
                          GuestTypeError, LinkError, ReproError)
from repro.interp.frame import InterpreterFrame
from repro.interp.handlers import DISPATCH, _Return
from repro.interp.profiler import Profiler
from repro.runtime.linker import Linker
from repro.runtime.natives import lookup_native
from repro.runtime.objects import Obj, new_instance


class BudgetExceeded(ReproError):
    """The optional instruction budget ran out (used to catch runaway
    guest loops in tests)."""


class Interpreter:
    """A MiniJVM virtual machine."""

    def __init__(self, linker=None, output="capture", max_steps=None):
        self.linker = linker if linker is not None else Linker()
        self.jit = None                  # set by repro.jit.api.Lancet
        self.telemetry = None            # set by repro.jit.api.Lancet
        self.profiler = Profiler()
        self.profile = False
        self.trace_recorder = None       # set by the TraceManager (Tier T)
        self.max_steps = max_steps
        self.steps = 0
        self._output_mode = output
        self._out = []

    # -- output sink -----------------------------------------------------------

    def write(self, text):
        if self._output_mode == "capture":
            self._out.append(text)
        elif self._output_mode == "stdout":
            import sys
            sys.stdout.write(text)
        # "discard": drop it

    def output(self):
        return "".join(self._out)

    def clear_output(self):
        self._out = []

    # -- loading ------------------------------------------------------------------

    def load_classes(self, classfiles):
        return self.linker.load_classes(classfiles)

    def load_source(self, source, filename="<minij>"):
        """Compile and load MiniJ source."""
        from repro.frontend.compiler import compile_source
        return self.load_classes(compile_source(source, filename=filename))

    # -- entry points ----------------------------------------------------------------

    def call(self, class_name, method_name, args=()):
        """Call a static guest method from the host."""
        method = self.linker.resolve_static(class_name, method_name)
        return self.invoke_method(method, None, list(args))

    def call_closure(self, closure, args=()):
        """Invoke ``closure.apply(args)``; accepts host callables too."""
        if callable(closure) and not isinstance(closure, Obj):
            return closure(*args)
        if not isinstance(closure, Obj):
            raise GuestTypeError("not callable: %r" % (closure,))
        method = self.linker.resolve_virtual(closure.cls, "apply")
        return self.invoke_method(method, closure, list(args))

    def new_object(self, class_name, init_args=()):
        """Allocate a guest object and run its ``init`` method."""
        cls = self.linker.resolve_class(class_name)
        obj = new_instance(cls)
        init = cls.lookup_method("init")
        if init is not None:
            self.invoke_method(init, obj, list(init_args))
        return obj

    def invoke_method(self, method, receiver, args):
        """Build a root frame for ``method`` and run it to completion."""
        if method.num_params != len(args):
            raise GuestTypeError("%s expects %d args, got %d" % (
                method.qualified_name, method.num_params, len(args)))
        if self.telemetry is not None:
            self.telemetry.inc("interp.invocations")
        frame = InterpreterFrame(method)
        base = 0
        if not method.is_static:
            frame.set_local(0, receiver)
            base = 1
        for i, a in enumerate(args):
            frame.set_local(base + i, a)
        return self.run_frames(frame)

    # -- the main loop (paper: ``def loop() = while (globalFrame != null) ...``)

    def run_frames(self, global_frame):
        """Run until the root of ``global_frame``'s chain returns.

        Used both for fresh calls and to resume a reconstructed frame chain
        after deoptimization (the frames carry their own ``bci``/stack).
        """
        frame = global_frame
        max_steps = self.max_steps
        profile = self.profile
        # Tier controller, when armed: hot back-edges may tier up
        # mid-execution (OSR) and finish this run in compiled code.
        tiers = None
        if profile and self.jit is not None:
            controller = getattr(self.jit, "tiers", None)
            if controller is not None and controller.armed:
                tiers = controller
        dispatch = DISPATCH
        jump_op = Op.JUMP

        while frame is not None:
            method = frame.method
            code = method.code
            bci = frame.bci
            if bci >= len(code):
                raise GuestError("pc out of range in %s" % method.qualified_name)
            ins = code[bci]
            frame.bci = bci + 1
            op = ins.op
            self.steps += 1
            if max_steps is not None and self.steps > max_steps:
                raise BudgetExceeded("exceeded %d interpreter steps" % max_steps)

            if profile:
                # Tier-T recording hook (``jit_merge_point``): re-read
                # each iteration — a back-edge below can flip it on
                # mid-loop. Runs *before* the dispatch so the recorder
                # can peek concrete operands still on the stack.
                rec = self.trace_recorder
                if rec is not None:
                    rec.record(frame, ins, bci)

            handler = dispatch[op]
            if handler is None:  # pragma: no cover - verifier precludes this
                raise GuestError("bad opcode %r" % (op,))
            try:
                result = handler(self, frame, ins.arg)
            except ReproError as exc:
                if self.trace_recorder is not None:  # traces skip error paths
                    self.trace_recorder.on_error(exc)
                raise
            if result is not None:
                if result.__class__ is _Return:
                    return result.value
                frame = result
            elif profile and op is jump_op:
                target = frame.bci
                if target <= bci:
                    # Loop back-edge: count it, and let a hot loop tier
                    # up on the stack (the continuation finishes this
                    # whole run_frames execution in compiled code).
                    self.profiler.count_backedge(method, target)
                    if tiers is not None:
                        cont = tiers.on_backedge(self, frame)
                        if cont is not None:
                            return cont()

        return None

    # -- call helpers -------------------------------------------------------------

    def _push_call(self, frame, method, receiver, args):
        if method.num_params != len(args):
            raise GuestTypeError("%s expects %d args, got %d" % (
                method.qualified_name, method.num_params, len(args)))
        if self.profile:
            self.profiler.count_invoke(method)
        callee = InterpreterFrame(method, parent=frame)
        base = 0
        if not method.is_static:
            callee.set_local(0, receiver)
            base = 1
        for i, a in enumerate(args):
            callee.set_local(base + i, a)
        return callee

    def call_virtual(self, receiver, name, args):
        """Host-side virtual dispatch: call ``receiver.name(args)`` to
        completion (used by residual calls in compiled code)."""
        if isinstance(receiver, Obj):
            method = receiver.cls.lookup_method(name)
            if method is None:
                raise LinkError("no method %s on %s" % (name, receiver.cls.name))
            return self.invoke_method(method, receiver, list(args))
        if callable(receiver) and name == "apply":
            return receiver(*args)
        if receiver is None:
            raise GuestError("method %r called on null" % name)
        raise GuestTypeError("method %r called on %r" % (name, receiver))

    def _invoke_virtual(self, frame, receiver, name, args):
        """Virtual dispatch; returns the frame to continue with."""
        if isinstance(receiver, Obj):
            if self.profile:
                site = "%s@%d" % (frame.method.qualified_name, frame.bci - 1)
                self.profiler.count_receiver(site, receiver.cls.name)
            method = receiver.cls.lookup_method(name)
            if method is None:
                if name == "init" and not args:
                    # Classes without a constructor accept zero-arg `new`.
                    frame.push(None)
                    return frame
                raise LinkError("no method %s on %s" % (name, receiver.cls.name))
            if method.is_static:
                raise GuestTypeError("%s is static" % method.qualified_name)
            return self._push_call(frame, method, receiver, args)
        if callable(receiver) and name == "apply":
            # Host callables (e.g. JIT-compiled closures) masquerade as
            # guest closures: calling them crosses back into compiled code.
            frame.push(receiver(*args))
            return frame
        if receiver is None:
            raise GuestError("method %r called on null" % name)
        raise GuestTypeError("method %r called on %r" % (name, receiver))

    def _invoke_static(self, frame, cls_name, name, args):
        nat = lookup_native(cls_name, name)
        if nat is not None:
            if nat.argc != len(args):
                raise GuestTypeError("%s.%s expects %d args, got %d"
                                     % (cls_name, name, nat.argc, len(args)))
            if self.profile:
                self.profiler.count_native(cls_name, name)
            frame.push(nat.fn(self, *args))
            return frame
        method = self.linker.resolve_static(cls_name, name)
        return self._push_call(frame, method, None, args)
