"""Per-element kernels: Lancet-compiled guest closures + numpy vectorizer.

A kernel has a scalar form (the Lancet-compiled closure — already fast
Python) and, when the staged IR is straight-line arithmetic, a vectorized
numpy form built by re-rendering the same IR with array operations. The
vectorized form is this reproduction's analogue of Delite's CUDA kernels.

A kernel that is not vectorized runs as a *chunk loop*, as Delite's
codegen emits one loop per chunk: :func:`build_chunk_loop` wraps a copy of
the kernel's post-pipeline IR in a loop over the chunk (each ``Return v``
becomes a jump to a latch that folds ``v`` into a local) and renders it
with the kernel's own code generator, so the body is inlined and no
per-element call or deopt frame is left. The loop is built at the
kernel's first scalar launch and owned by the kernel (never by a global
table, which would keep dead VMs alive). A kernel that can deopt, has no
IR (a host kernel, one built by :meth:`Kernel.compose`, or one reloaded
from the code cache), or may write while it reads ``@stable`` fields
keeps the per-element scalar path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GuestIndexError
from repro.lms.ir import (Block, Branch, Deopt, Effect, Jump, OsrCompile,
                          Return, Stmt)
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
        # shape -> (scalar_fn.fn it was built from, loop or None, reason)
        self._chunks = {}

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

    def chunk_loop(self, shape):
        """``(loop, fallback)``: a function ``loop(n, start, *arrays)``
        that runs one chunk of an op of ``shape``. It is the chunk loop
        (see :func:`build_chunk_loop`) built from the current compiled
        code, with ``fallback`` None; or, with ``fallback`` giving the
        reason, a loop that calls the kernel per element. An invalidated
        kernel takes that loop once, which recompiles; the next launch
        sees new code and rebuilds the chunk loop."""
        compiled = self.scalar_fn
        if not getattr(compiled, "valid", True):
            return _scalar_loop(compiled, shape), "kernel invalidated"
        fn = getattr(compiled, "fn", compiled)
        built = self._chunks.get(shape)
        if built is None or built[0] is not fn:
            built = (fn,) + build_chunk_loop(compiled, shape)
            self._chunks[shape] = built
        if built[1] is not None:
            return built[1], None
        return _scalar_loop(compiled, shape), built[2]

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


#: Statements and terminators that leave compiled code for the
#: interpreter; a chunk loop has no frame to resume them in.
_DEOPT_OPS = ("guard", "guard_not", "make_cont")
_MAY_WRITE = (Effect.WRITE, Effect.CALL, Effect.IO)


def _scalar_loop(fn, shape):
    """The per-element chunk loop: one call of ``fn`` per element."""
    folds, __, indexed = shape

    def loop(n, start, *arrays):
        rows = zip(*arrays, range(start, start + n)) if indexed \
            else zip(*arrays)
        if not folds:
            return [fn(*xs) for xs in rows]
        acc = 0
        for xs in rows:
            acc += fn(*xs)
        return acc

    return loop


def _chunk_blocker(ir):
    """Why ``ir`` cannot be inlined into a chunk loop, or None."""
    writes = False
    for block in ir.blocks.values():
        for stmt in block.stmts:
            if stmt.op in _DEOPT_OPS:
                return "can deopt (%s)" % stmt.op
            writes = writes or stmt.effect in _MAY_WRITE
        if isinstance(block.terminator, (Deopt, OsrCompile)):
            return "can deopt (%s)" % type(block.terminator).__name__
    if writes and ir.stable_deps:
        # A write inside the chunk could invalidate the kernel while
        # later elements still run its code.
        return "reads @stable fields and may write"
    return None


def build_chunk_loop(compiled, shape):
    """Render ``compiled``'s kernel inside a loop over one chunk.

    ``shape`` is ``(folds, inputs, indexed)``. The loop is called as
    ``loop(n, start, *arrays)`` with ``inputs`` element arrays of length
    ``n``. For each ``j`` below ``n`` it binds the kernel's parameters to
    ``arrays[k][j]`` and, when ``indexed``, the global index
    ``start + j`` last; it runs the kernel body, and folds the result
    into a local (``acc + v``) when ``folds`` or stores it at ``out[j]``.
    The scaffold uses host subscripts and ``+``, as a per-element caller
    does, so sums fold in the same order. The IR is a copy around the
    kernel's own blocks; each ``Return v`` jumps to the latch instead.

    Returns ``(loop, None)`` or ``(None, reason)``."""
    from repro.lms.codegen_py import PyCodegen
    from repro.pipeline.backend import python_runtime_hooks

    ir = getattr(compiled, "ir", None)
    if ir is None:
        return None, "no IR"
    reason = _chunk_blocker(ir)
    if reason is not None:
        return None, reason
    folds, inputs, indexed = shape
    params = list(ir.param_names)
    if len(params) != inputs + indexed:
        return None, "kernel takes %d arguments, not %d" % (
            len(params), inputs + indexed)

    blocks = {}

    def block(bid, stmts, term, params=()):
        blocks[bid] = b = Block(bid, params)
        b.stmts = stmts
        b.terminator = term

    def stmt(name, op, args, effect=Effect.PURE, **flags):
        return Stmt(Sym(name), op, args, effect, flags)

    entry, header, load, latch, done = range(max(ir.blocks) + 1,
                                             max(ir.blocks) + 6)
    returns = [b.terminator for b in ir.blocks.values()
               if isinstance(b.terminator, Return)]
    # One Return dominates the latch, which reads its value directly;
    # several pass theirs in the latch's parameter.
    merged = len(returns) != 1
    value = Sym("__v") if merged else returns[0].value
    for bid, b in ir.blocks.items():
        term = b.terminator
        if isinstance(term, Return):
            term = Jump(latch, [("__v", term.value)] if merged else ())
        block(bid, list(b.stmts), term, b.params)

    n, j, acc, out = Sym("__n"), Sym("__j"), Sym("__acc"), Sym("__out")
    arrays = ["__e%d" % k for k in range(inputs)]
    loads = [stmt(params[k], "aload", (Sym(arrays[k]), j), Effect.READ,
                  fast=True) for k in range(inputs)]
    if indexed:
        loads.append(stmt(params[-1], "add", (Sym("__start"), j), num=True))
    step = stmt("__j1", "add", (j, ConstRep(1)), num=True)
    if folds:
        block(entry, [], Jump(header, [("__acc", ConstRep(0)),
                                       ("__j", ConstRep(0))]))
        fold = stmt("__acc1", "add", (acc, value), num=True)
        back = [("__acc", fold.sym), ("__j", step.sym)]
    else:
        block(entry, [stmt("__out", "new_array", (n,), Effect.ALLOC)],
              Jump(header, [("__j", ConstRep(0))]))
        fold = stmt("__w", "astore", (out, j, value), Effect.WRITE, fast=True)
        back = [("__j", step.sym)]
    block(header, [stmt("__c", "lt", (j, n), num=True)],
          Branch(Sym("__c"), load, [], done, []),
          [name for name, __ in back])
    block(load, loads, Jump(ir.entry_bid))
    block(latch, [fold, step], Jump(header, back),
          ["__v"] if merged else ())
    block(done, [], Return(acc if folds else out))

    jit = compiled.jit
    codegen = PyCodegen(jit.vm, ir.statics, ir.metas, fn_name="__chunk")
    loop, __ = codegen.generate(blocks, entry, ["__n", "__start"] + arrays,
                                *python_runtime_hooks(jit, ir.metas),
                                optimize=False)
    if codegen.fallback is not None:
        jit.telemetry.inc("codegen.unstructured")

    def chunk(n, start, *arrays):
        # Fast subscripts surface Python IndexError, as in a compiled call.
        try:
            return loop(n, start, *arrays)
        except IndexError as exc:
            raise GuestIndexError(str(exc))

    return chunk, None
