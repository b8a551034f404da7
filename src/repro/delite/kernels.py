"""Per-element kernels: Lancet-compiled guest closures + numpy vectorizer.

A kernel has a scalar form (the Lancet-compiled closure — already fast
Python) and, when the staged IR is straight-line arithmetic, a vectorized
numpy form built by re-rendering the same IR with array operations. The
vectorized form is this reproduction's analogue of Delite's CUDA kernels.
"""

from __future__ import annotations

import numpy as np

from repro.lms.ir import Return
from repro.lms.rep import ConstRep, Sym

# op -> numpy expression template
_VEC_TEMPLATES = {
    "add": "({0} + {1})",
    "sub": "({0} - {1})",
    "mul": "({0} * {1})",
    "div": "({0} / {1})",           # float semantics (kernels are numeric)
    "neg": "(-{0})",
    "eq": "({0} == {1})",
    "ne": "({0} != {1})",
    "lt": "({0} < {1})",
    "le": "({0} <= {1})",
    "gt": "({0} > {1})",
    "ge": "({0} >= {1})",
    "not": "(~{0})",
    "id": "{0}",
}

_VEC_NATIVES = {
    ("Math", "exp"): "np.exp({0})",
    ("Math", "log"): "np.log({0})",
    ("Math", "sqrt"): "np.sqrt({0})",
    ("Math", "abs"): "np.abs({0})",
    ("Math", "min"): "np.minimum({0}, {1})",
    ("Math", "max"): "np.maximum({0}, {1})",
    ("Math", "pow"): "np.power({0}, {1})",
    ("Math", "floor"): "np.floor({0})",
    ("Math", "toFloat"): "({0}).astype(np.float64)",
}


class Kernel:
    """A per-element function in scalar and (optionally) vector form.
    ``fused`` marks a kernel a fusion rewrite built out of others."""

    def __init__(self, scalar_fn, arity, numpy_fn=None, name="kernel",
                 numpy_source=None, fused=False):
        self.scalar_fn = scalar_fn
        self.arity = arity
        self.numpy_fn = numpy_fn
        self.name = name
        self.numpy_source = numpy_source
        self.fused = fused

    @property
    def vectorized(self):
        return self.numpy_fn is not None

    @classmethod
    def from_closure(cls, jit, closure, name=None):
        """Compile a guest closure into a kernel via Lancet, then try to
        vectorize its IR."""
        compiled = jit.compile_closure(closure)
        arity = closure.cls.lookup_method("apply").num_params
        numpy_fn, source = try_vectorize(compiled, arity)
        kernel = cls(compiled, arity, numpy_fn=numpy_fn,
                     name=name or closure.cls.name, numpy_source=source)
        kernel.guest_closure = closure
        return kernel

    @classmethod
    def from_host(cls, scalar_fn, arity, numpy_fn=None, name="host-kernel"):
        """A kernel written directly in Python (the standalone-Delite
        path, bypassing Lancet)."""
        return cls(scalar_fn, arity, numpy_fn=numpy_fn, name=name)

    def compose(self, outer):
        """Kernel fusion: ``outer(self(x...))`` (outer must be unary)."""
        if outer.arity != 1:
            raise ValueError("can only fuse into a unary kernel")
        inner_s, outer_s = self.scalar_fn, outer.scalar_fn

        def fused_scalar(*xs):
            return outer_s(inner_s(*xs))

        fused_numpy = None
        if self.numpy_fn is not None and outer.numpy_fn is not None:
            inner_v, outer_v = self.numpy_fn, outer.numpy_fn

            def fused_numpy(*xs):
                return outer_v(inner_v(*xs))

        return Kernel(fused_scalar, self.arity, numpy_fn=fused_numpy,
                      name="%s∘%s" % (outer.name, self.name), fused=True)

    def __repr__(self):
        return "<Kernel %s/%d%s>" % (self.name, self.arity,
                                     " vec" if self.vectorized else "")


def try_vectorize(compiled, arity):
    """Build a numpy whole-array function from a compiled kernel's IR.

    Succeeds only for straight-line numeric kernels (one block ending in
    Return, ops from the arithmetic whitelist); everything else keeps the
    scalar form. Returns ``(fn or None, source or None)``.
    """
    ir = getattr(compiled, "ir", None)
    if ir is None:
        return None, None
    blocks = [b for b in ir.blocks.values() if b.stmts or
              not _is_trivial_jump(b)]
    if len(blocks) != 1 or not isinstance(blocks[0].terminator, Return):
        return None, None
    block = blocks[0]
    params = ["a%d" % (i + 1) for i in range(arity)]

    def render(rep):
        if isinstance(rep, Sym):
            return rep.name
        if isinstance(rep, ConstRep) and isinstance(rep.value, (int, float)) \
                and not isinstance(rep.value, bool):
            return repr(rep.value)
        raise _NotVectorizable()

    lines = ["def __kernel(%s):" % ", ".join(params)]
    try:
        for stmt in block.stmts:
            if stmt.op in _VEC_TEMPLATES:
                expr = _VEC_TEMPLATES[stmt.op].format(
                    *[render(a) for a in stmt.args])
            elif stmt.op == "native":
                nat = stmt.args[0]
                template = _VEC_NATIVES.get((nat.class_name, nat.name))
                if template is None:
                    return None, None
                expr = template.format(*[render(a) for a in stmt.args[1:]])
            else:
                return None, None
            lines.append("    %s = %s" % (stmt.sym.name, expr))
        lines.append("    return %s" % render(block.terminator.value))
    except _NotVectorizable:
        return None, None

    source = "\n".join(lines) + "\n"
    namespace = {"np": np}
    exec(compile(source, "<delite-kernel>", "exec"), namespace)
    return namespace["__kernel"], source


class _NotVectorizable(Exception):
    pass


def _is_trivial_jump(block):
    from repro.lms.ir import Jump
    return (not block.stmts and isinstance(block.terminator, Jump)
            and not block.terminator.phi_assigns)
