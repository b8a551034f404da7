"""Class, method, and field metadata for MiniJVM code.

A :class:`ClassFile` is the unit the linker loads; it corresponds to a JVM
``.class`` file. Fields can be declared ``val`` (assign-once, like Java
``final``) — the optimizer folds reads of ``val`` fields on static objects,
exactly like the paper's ``field.isFinal`` shortcut (section 2.2).
"""

from __future__ import annotations


class FieldInfo:
    """A declared field. ``is_val`` marks assign-once (final) fields."""

    __slots__ = ("name", "is_val")

    def __init__(self, name, is_val=False):
        self.name = name
        self.is_val = is_val

    def __repr__(self):
        return "FieldInfo(%r, is_val=%r)" % (self.name, self.is_val)


class MethodInfo:
    """A method: bytecode, parameter count, and local-slot count.

    For instance methods slot 0 holds ``this`` and parameters follow; for
    static methods parameters start at slot 0. ``num_locals`` covers
    parameters plus compiler-allocated temporaries.
    """

    def __init__(self, name, num_params, code, is_static=False,
                 num_locals=None, class_name=None):
        self.name = name
        self.num_params = num_params      # excluding the implicit ``this``
        self.code = list(code)
        self.is_static = is_static
        self.class_name = class_name      # set when attached to a ClassFile
        if num_locals is None:
            num_locals = self._infer_num_locals()
        self.num_locals = num_locals

    def _infer_num_locals(self):
        from repro.bytecode.opcodes import Op
        n = self.num_params + (0 if self.is_static else 1)
        for ins in self.code:
            if ins.op in (Op.LOAD, Op.STORE):
                n = max(n, ins.arg + 1)
        return n

    @property
    def qualified_name(self):
        return "%s.%s" % (self.class_name or "?", self.name)

    def frame_slots(self):
        """Total frame slots: locals plus a conservative operand-stack
        bound (memoized, as the interpreter's ``method_stack_size``)."""
        slots = getattr(self, "_frame_slots", None)
        if slots is None:
            slots = self._frame_slots = self.num_locals + max_stack(self.code)
        return slots

    def __repr__(self):
        return "MethodInfo(%s, params=%d, %d instrs)" % (
            self.qualified_name, self.num_params, len(self.code))


def max_stack(code):
    """Conservative operand stack bound via a forward scan with branch joins."""
    from repro.bytecode.opcodes import Op
    depth_at = {0: 0} if code else {}
    worklist = [0]
    best = 0
    while worklist:
        i = worklist.pop()
        d = depth_at[i]
        while i < len(code):
            ins = code[i]
            pops, pushes = ins.stack_effect()
            d = d - pops + pushes
            best = max(best, d)
            if ins.op in (Op.RET, Op.RET_VAL, Op.THROW):
                break
            if ins.op is Op.JUMP:
                tgt = ins.arg
                if depth_at.get(tgt, -1) < d:
                    depth_at[tgt] = max(depth_at.get(tgt, 0), d)
                    worklist.append(tgt)
                break
            if ins.op in (Op.JIF_TRUE, Op.JIF_FALSE):
                tgt = ins.arg
                if tgt not in depth_at or depth_at[tgt] < d:
                    depth_at[tgt] = max(depth_at.get(tgt, 0), d)
                    worklist.append(tgt)
            i += 1
            if i in depth_at and depth_at[i] >= d:
                break
            depth_at[i] = max(depth_at.get(i, 0), d)
    return best


class ClassFile:
    """A MiniJVM class: name, superclass, fields, and methods.

    ``is_closure`` marks classes synthesized by the MiniJ compiler for
    lambdas (captured variables become ``val`` fields and the body becomes
    the ``apply`` method), mirroring how Scala closures appear in JVM
    bytecode.
    """

    def __init__(self, name, super_name=None, is_closure=False,
                 source_name=None):
        self.name = name
        self.super_name = super_name
        self.is_closure = is_closure
        self.source_name = source_name
        self.fields = {}      # name -> FieldInfo
        self.methods = {}     # name -> MethodInfo

    def add_field(self, name, is_val=False):
        if name in self.fields:
            raise ValueError("duplicate field %s.%s" % (self.name, name))
        self.fields[name] = FieldInfo(name, is_val=is_val)
        return self.fields[name]

    def add_method(self, method):
        if method.name in self.methods:
            raise ValueError("duplicate method %s.%s" % (self.name, method.name))
        method.class_name = self.name
        self.methods[method.name] = method
        return method

    def __repr__(self):
        return "ClassFile(%r, %d fields, %d methods)" % (
            self.name, len(self.fields), len(self.methods))
