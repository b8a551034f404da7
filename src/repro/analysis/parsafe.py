"""Parallel-safety analysis: a static race detector for Delite ops.

The Delite evaluation assumes parallel patterns are safe to chunk across
cores. This module *proves* that assumption per op instead of trusting
it (the PR 7 philosophy: check the compiler's claims), so the runtime can
gate which ops are ever allowed on a real parallel backend.

Per kernel we compute an effect/footprint summary over its compiled IR
(reusing the per-op facts in :mod:`repro.analysis.effects` and the
freshness notion of :mod:`repro.analysis.escape`), then classify each
:class:`~repro.delite.ops.DeliteOp` into a three-point lattice:

* ``ProvenParallel`` — per-element footprints are disjoint: the kernel
  never writes to uniforms or captured state, performs no residual calls
  with unknown effects, and every output is allocation-fresh. Chunked
  execution over disjoint index ranges commutes with sequential
  execution.
* ``ProvenSequential`` — provably *not* safe to chunk: the kernel writes
  shared state (a captured accumulator, a uniform), or a reduce's
  combine function is not proven associative/commutative (the runtime
  combines chunk partials with ``+``; a non-additive fold would compute
  a different answer when chunked).
* ``Unknown`` — residual calls, missing kernel IR, or guard/deopt side
  exits whose off-trace behaviour cannot be bounded. Treated exactly
  like ``ProvenSequential`` by the backend gate: unproven is unsafe.

Builtin patterns (:class:`ElementwiseBuiltin` / :class:`ReduceBuiltin`)
ship no guest IR; they are classified by *machine-checked contract*:
elementwise builtins are disjoint by construction (and that claim is
cross-validated at runtime by the :mod:`repro.analysis.raced` sanitizer
under ``REPRO_PARSAFE=check``), while reduce builtins must pass an
associativity/commutativity probe of their ``combine`` function.

The module also hosts the fusion-legality checker consulted by
:mod:`repro.delite.fusion`: a *preflight* check that refuses a rewrite
whose kernels it cannot prove safe, and a *re-checker* that validates
every performed rewrite after the fact, mirroring how
:mod:`repro.analysis.validate` re-checks the optimizer.
"""

from __future__ import annotations

from repro.analysis.effects import (ALLOC_OPS, LOAD_OPS, STORE_OPS,
                                    fresh_syms, invoke_summary, is_total,
                                    may_alias, method_effect_summary)
from repro.lms.ir import Deopt, Effect, OsrCompile
from repro.lms.rep import Rep, Sym

#: The verdict lattice (strings so flags/JSON stay trivially portable).
PROVEN_PARALLEL = "ProvenParallel"
PROVEN_SEQUENTIAL = "ProvenSequential"
UNKNOWN = "Unknown"

VERDICTS = (PROVEN_PARALLEL, PROVEN_SEQUENTIAL, UNKNOWN)


class ParVerdict:
    """One op's classification, with blame provenance: *which* statement
    (or contract) broke — or established — footprint disjointness."""

    __slots__ = ("status", "checker", "blame", "op_kind", "op_name",
                 "kernel_name")

    def __init__(self, status, checker, blame, op_kind="", op_name="",
                 kernel_name=None):
        self.status = status
        self.checker = checker       # which checker decided
        self.blame = blame           # human provenance
        self.op_kind = op_kind
        self.op_name = op_name
        self.kernel_name = kernel_name

    @property
    def proven_parallel(self):
        return self.status == PROVEN_PARALLEL

    def to_dict(self):
        return {"status": self.status, "checker": self.checker,
                "blame": self.blame, "op_kind": self.op_kind,
                "op_name": self.op_name, "kernel_name": self.kernel_name}

    def __repr__(self):
        return "<ParVerdict %s %s [%s] %s>" % (
            self.op_name, self.status, self.checker, self.blame)


class KernelSummary:
    """Effect/footprint summary of one kernel's compiled IR.

    ``shared_writes`` lists heap stores whose base is not an
    allocation-fresh object of the kernel itself — writes that chunked
    execution would interleave across cores. ``residuals`` lists
    statements whose effects cannot be bounded statically (calls,
    impure natives, nested Delite launches). ``total`` means no
    statement can raise and there are no guard/deopt side exits, so the
    kernel may execute on paths the original program skipped (the LICM
    hoisting criterion)."""

    __slots__ = ("shared_writes", "residuals", "reads", "allocates",
                 "may_throw", "deopt_exits")

    def __init__(self):
        self.shared_writes = []      # blame strings
        self.residuals = []          # blame strings
        self.reads = False
        self.allocates = False
        self.may_throw = False
        self.deopt_exits = False

    @property
    def write_free(self):
        """No statically visible write to shared state and no residual
        statement that could hide one."""
        return not self.shared_writes and not self.residuals

    @property
    def total(self):
        return not self.may_throw and not self.deopt_exits

    @property
    def blame(self):
        if self.shared_writes:
            return self.shared_writes[0]
        if self.residuals:
            return self.residuals[0]
        return None

    def __repr__(self):
        return "KernelSummary(writes=%d, residuals=%d, reads=%s, total=%s)" \
            % (len(self.shared_writes), len(self.residuals), self.reads,
               self.total)


#: IR ops that transfer control to a residual call.
_CALL_OPS = ("invoke_method", "invoke_virtual", "invoke_static", "call")


def summarize_kernel(kernel):
    """Summary of a kernel's compiled scalar IR; ``None`` when the kernel
    has no IR to analyze (host-written kernels). Memoized on the kernel
    object (kernels are immutable descriptors)."""
    cached = getattr(kernel, "_parsafe_summary", None)
    if cached is not None:
        return cached
    ir = getattr(getattr(kernel, "scalar_fn", None), "ir", None)
    if ir is None:
        return None
    summary = _summarize_blocks(ir.blocks)
    if summary.deopt_exits:
        # A side exit resumes the *guest method* in the interpreter; the
        # IR proof only covers the speculated fast path. Bound the
        # off-trace behaviour with the bytecode-level effect summary of
        # the closure's apply method (opaque summaries stay residual).
        closure = getattr(kernel, "guest_closure", None)
        method = closure.cls.lookup_method("apply") \
            if closure is not None else None
        bc = method_effect_summary(method) if method is not None else None
        if bc is None or bc.writes or bc.calls:
            summary.residuals.append(
                "guard/deopt side exit with unbounded off-trace effects")
    kernel._parsafe_summary = summary
    return summary


def _summarize_blocks(blocks):
    summary = KernelSummary()
    fresh = fresh_syms(blocks)
    for block in blocks.values():
        for stmt in block.stmts:
            op = stmt.op
            if op in STORE_OPS:
                base = stmt.args[0]
                if isinstance(base, Sym) and base.name in fresh:
                    continue          # initializing a fresh allocation
                summary.shared_writes.append(
                    "%s = %s(%s): writes shared/captured state"
                    % (stmt.sym, op, ", ".join(map(repr, stmt.args))))
            elif op == "delite":
                summary.residuals.append(
                    "%s: nested Delite launch" % (stmt.sym,))
            elif op == "native":
                nat = stmt.args[0]
                if not getattr(nat, "pure", False):
                    summary.residuals.append(
                        "%s = native %s: impure native"
                        % (stmt.sym, getattr(nat, "name", nat)))
            elif op in _CALL_OPS or stmt.effect in (Effect.CALL, Effect.IO):
                callee = invoke_summary(stmt)
                if callee is not None and callee.is_read_only:
                    summary.reads = summary.reads or callee.reads
                    summary.may_throw |= callee.may_throw
                else:
                    summary.residuals.append(
                        "%s = %s(...): residual call with unknown effects"
                        % (stmt.sym, op))
            elif op in LOAD_OPS:
                summary.reads = True
            elif op in ALLOC_OPS:
                summary.allocates = True
            if stmt.effect is Effect.GUARD:
                summary.deopt_exits = True
            if not is_total(stmt) and stmt.effect in (Effect.PURE,
                                                      Effect.READ):
                summary.may_throw = True
        if isinstance(block.terminator, (Deopt, OsrCompile)):
            summary.deopt_exits = True
    return summary


# -- reduce-combine legality -------------------------------------------------

#: Probe values: exact binary fractions so float combine probes are
#: bit-exact under reassociation when the operation really is one of the
#: exactly-representable monoids (+ on small dyadics, min/max, ...).
_PROBE_VALUES = (0.5, -2.0, 3.25, 7.0)


def probe_combine(combine):
    """Machine-check a builtin's ``combine`` for associativity and
    commutativity by probing on exact values (the Druid stance: metadata
    must be checkable, not hand-asserted). Sound in the False direction;
    a passing probe is cross-validated by the runtime sanitizer."""
    try:
        for a in _PROBE_VALUES:
            for b in _PROBE_VALUES:
                if combine(a, b) != combine(b, a):
                    return False
                for c in _PROBE_VALUES:
                    if combine(combine(a, b), c) != combine(a, combine(b, c)):
                        return False
    except Exception:
        return False
    return True


def reduce_fold_parallel(kernel):
    """Is a guest fold kernel ``fun(acc, x) => ...`` safe to chunk under
    the runtime's ``+`` partial combine? True only when the kernel IR is
    a straight-line additive fold: ``return add(acc, g(x))`` with the
    accumulator appearing exactly once, as a top-level addend. Anything
    else (subtraction, min-tracking, state) must stay sequential."""
    ir = getattr(getattr(kernel, "scalar_fn", None), "ir", None)
    if ir is None:
        return False
    blocks = [b for b in ir.blocks.values()]
    if len(blocks) != 1:
        return False
    block = blocks[0]
    from repro.lms.ir import Return
    if not isinstance(block.terminator, Return):
        return False
    summary = _summarize_blocks(ir.blocks)
    if not summary.write_free or summary.deopt_exits:
        return False
    acc = Sym("a1")                      # first kernel parameter
    acc_uses = 0
    acc_in_add = False
    defs = {s.sym.name: s for s in block.stmts}
    for stmt in block.stmts:
        for a in stmt.args:
            if a == acc:
                acc_uses += 1
                if stmt.op == "add":
                    acc_in_add = True
    ret = block.terminator.value
    if ret == acc:
        return False                     # fold ignores elements? keep seq
    ret_def = defs.get(ret.name) if isinstance(ret, Sym) else None
    if ret_def is None or ret_def.op != "add":
        return False
    return acc_uses == 1 and acc_in_add and acc in ret_def.args


# -- op classification -------------------------------------------------------

def classify_op(op):
    """Classify one Delite op descriptor; memoized on the op object
    (descriptors are immutable and shared between stmt and runtime, so
    the compile-time verdict is exactly the one the backend gate sees)."""
    cached = getattr(op, "_parsafe_verdict", None)
    if cached is not None:
        return cached
    verdict = _classify(op)
    try:
        op._parsafe_verdict = verdict
    except AttributeError:       # descriptors define __slots__? none do
        pass
    return verdict


def _classify(op):
    from repro.delite.ops import (KERNEL_OPS, ElementwiseBuiltin,
                                  ReduceBuiltin, ReduceOp, ZipWithIndexOp)
    kind = type(op).__name__
    name = getattr(op, "name", kind)

    def verdict(status, checker, blame, kernel=None):
        return ParVerdict(status, checker, blame, op_kind=kind,
                          op_name=name,
                          kernel_name=getattr(kernel, "name", None))

    if isinstance(op, ZipWithIndexOp):
        return verdict(PROVEN_SEQUENTIAL, "aos-materialize",
                       "materializes AoS pairs in traversal order")
    if isinstance(op, ElementwiseBuiltin):
        return verdict(PROVEN_PARALLEL, "builtin-contract",
                       "elementwise builtin: per-element footprints "
                       "disjoint by construction (sanitizer-validated)")
    if isinstance(op, ReduceBuiltin):
        if probe_combine(op.combine):
            return verdict(PROVEN_PARALLEL, "combine-probe",
                           "combine probed associative/commutative")
        return verdict(PROVEN_SEQUENTIAL, "combine-probe",
                       "combine not proven associative/commutative")
    if isinstance(op, KERNEL_OPS):
        kernel = op.kernel
        summary = summarize_kernel(kernel)
        if summary is None:
            return verdict(UNKNOWN, "kernel-footprint",
                           "no kernel IR to analyze (host-written kernel)",
                           kernel)
        if summary.shared_writes:
            return verdict(PROVEN_SEQUENTIAL, "kernel-footprint",
                           summary.blame, kernel)
        if summary.residuals:
            return verdict(UNKNOWN, "kernel-footprint", summary.blame,
                           kernel)
        return verdict(PROVEN_PARALLEL, "kernel-footprint",
                       "per-element footprints disjoint: no shared "
                       "writes, outputs allocation-fresh", kernel)
    if isinstance(op, ReduceOp):
        if op.kernel is None:
            return verdict(PROVEN_PARALLEL, "reduce-combine",
                           "builtin sum: associative/commutative")
        if reduce_fold_parallel(op.kernel):
            return verdict(PROVEN_PARALLEL, "reduce-combine",
                           "additive fold: combine-by-+ proven sound",
                           op.kernel)
        return verdict(PROVEN_SEQUENTIAL, "reduce-combine",
                       "fold kernel not proven an additive "
                       "associative/commutative combine", op.kernel)
    return verdict(UNKNOWN, "kernel-footprint",
                   "unrecognized op kind %s" % kind)


def classify_blocks(blocks):
    """Classify every Delite statement in a compiled unit's CFG. Returns
    ``[(stmt, ParVerdict)]`` and attaches each verdict to the statement's
    flags (``stmt.flags['parsafe']``) for downstream introspection."""
    verdicts = []
    for block in blocks.values():
        for stmt in block.stmts:
            if stmt.op != "delite":
                continue
            v = classify_op(stmt.args[0])
            stmt.flags["parsafe"] = v.status
            stmt.flags["parsafe_verdict"] = v
            verdicts.append((stmt, v))
    return verdicts


# -- optimization-facing facts ----------------------------------------------

def delite_write_free(stmt):
    """May this ``delite`` statement write any pre-existing heap object?
    False (proven write-free) lets GVN keep cached loads alive across
    the launch and lets :func:`repro.analysis.effects.clobbers` stop
    assuming arbitrary writes."""
    op = stmt.args[0]
    from repro.delite.ops import (ElementwiseBuiltin, ReduceBuiltin,
                                  ZipWithIndexOp)
    if isinstance(op, (ElementwiseBuiltin, ReduceBuiltin, ZipWithIndexOp)):
        return True                  # builtins read inputs, write nothing
    kernel = getattr(op, "kernel", None)
    if kernel is None:
        return True                  # ReduceOp(None): builtin sum
    summary = summarize_kernel(kernel)
    return summary is not None and summary.write_free


def delite_scalar_result(stmt):
    """Does the op produce a scalar (identity-free) value? Scalar results
    are trivially immutable, so the launch is safe to CSE/hoist when the
    kernel is write-free — array results carry identity (guests may
    mutate them) and stay pinned like allocations."""
    op = stmt.args[0]
    return bool(getattr(op, "scalar_result", False))


def delite_total(stmt):
    """May the launch execute on paths the original program skipped?
    Builtins declare totality by contract (tuned, vetted patterns);
    guest kernels must prove it from their IR."""
    op = stmt.args[0]
    if getattr(op, "total", False):
        return True
    kernel = getattr(op, "kernel", None)
    if kernel is None:
        return False
    summary = summarize_kernel(kernel)
    return summary is not None and summary.write_free and summary.total


def delite_cse_key(stmt):
    """Block-local CSE key for a Delite launch, or None when not
    CSE-able. Requires a write-free kernel (result depends only on the
    inputs and the heap) and a scalar result (no identity to duplicate);
    keyed on the op descriptor's identity plus the argument reps."""
    if stmt.op != "delite":
        return None
    if not delite_scalar_result(stmt) or not delite_write_free(stmt):
        return None
    args = stmt.args[1:]
    if not all(isinstance(a, Rep) for a in args):
        return None
    return ("delite", id(stmt.args[0])) + tuple(args)


# -- fusion legality ---------------------------------------------------------

class FusionRecord:
    """Journal entry for one fusion.py rewrite, re-checked post-hoc."""

    __slots__ = ("kind", "stmt", "fused_op", "kernels", "elem_reps")

    def __init__(self, kind, stmt, fused_op, kernels, elem_reps=()):
        self.kind = kind             # 'map-map' | 'map-reduce' | 'soa'
        self.stmt = stmt
        self.fused_op = fused_op
        self.kernels = kernels       # the guest kernels composed
        self.elem_reps = tuple(elem_reps)

    def __repr__(self):
        return "<FusionRecord %s %s>" % (self.kind, self.fused_op)


def check_fusion(kind, kernels, elem_reps=(), fresh=frozenset()):
    """Fusion-legality check shared by the preflight (before a rewrite)
    and the re-checker (after). Returns ``(ok, checker, reason)``.

    * ``zip-alias`` — a ZipMap whose element inputs may alias is only
      pointwise-safe when the kernel is proven write-free; an unproven
      kernel observing the same array through both inputs could see its
      own writes in a chunk-order-dependent way.
    * ``stateful-kernel`` — composing kernels reorders their effects
      (unfused: all inner applications, then all outer; fused:
      interleaved per element), so every fused kernel must be proven
      write-free with no unknown residuals.
    * ``reduce-combine`` — a rewrite into a MapReduce implies the
      runtime's ``+`` partial combine; only additive combines are legal
      (all current rewrites target ``ReduceOp(None)``, which is).
    """
    aliased = len(elem_reps) == 2 and may_alias(elem_reps[0], elem_reps[1],
                                                fresh)
    for kernel in kernels:
        summary = summarize_kernel(kernel)
        proven = summary is not None and summary.write_free
        if proven:
            continue
        blame = summary.blame if summary is not None \
            else "no kernel IR to analyze"
        if aliased:
            return (False, "zip-alias",
                    "aliased element inputs to ZipMapOp with unproven "
                    "kernel %s: %s" % (kernel.name, blame))
        return (False, "stateful-kernel",
                "kernel %s not proven safe to fuse: %s"
                % (kernel.name, blame))
    return (True, None, None)


def recheck_fusions(records, fresh=frozenset()):
    """Validate every performed rewrite against the summaries (the
    fusion analogue of per-pass translation validation). Returns a list
    of finding strings — empty when the preflight did its job."""
    findings = []
    for record in records:
        ok, checker, reason = check_fusion(record.kind, record.kernels,
                                           record.elem_reps, fresh)
        if not ok:
            findings.append("illegal %s fusion into %s [%s]: %s"
                            % (record.kind, record.fused_op.name, checker,
                               reason))
    return findings
