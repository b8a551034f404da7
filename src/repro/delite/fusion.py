"""Op fusion over the staged IR (paper 3.4).

Rewrites chains of Delite statements inside compiled code:

* ``map(map(xs))`` — vertical fusion by kernel composition;
* ``sum(map(xs))`` / ``sum(zipmap(xs, ys))`` — DeliteOpMapReduce, removing
  the intermediate array;
* ``map(zipWithIndex(xs))`` — the AoS-to-SoA transformation: the map
  kernel is recompiled against a synthesized ``(element, index)`` closure,
  whose Pair allocation Lancet scalar-replaces — so the fused kernel never
  allocates pair objects at all (exactly the paper's name-score win).

Producers whose only consumer was fused away become dead and are removed
by the regular DCE pass (delite ops are functional).

Every rewrite is *legality-gated* by the parallel-safety summaries
(:mod:`repro.analysis.parsafe`): composing kernels reorders their
effects, so ``fuse`` refuses — with a ``fusion.reject`` telemetry
event — any rewrite whose kernels it cannot prove write-free (and any
ZipMap whose element inputs may alias under an unproven kernel). Each
performed rewrite is journaled and re-checked against the summaries
afterwards, the fusion analogue of per-pass translation validation:
a re-check finding means the preflight and the summaries disagree and
raises :class:`~repro.errors.ParallelSafetyError` (or becomes an error
diagnostic in collect mode).
"""

from __future__ import annotations

from repro.analysis.effects import fresh_syms
from repro.analysis.parsafe import (FusionRecord, check_fusion,
                                    recheck_fusions)
from repro.bytecode.builder import MethodBuilder
from repro.bytecode.classfile import ClassFile
from repro.errors import ParallelSafetyError
from repro.lms.ir import Branch, Deopt, Jump, OsrCompile, Return
from repro.lms.rep import Sym


def fuse_delite(blocks, jit=None, diagnostics=None):
    """Fuse Delite stmt chains in-place; returns the number of fusions."""
    delite_stmts = {}
    for block in blocks.values():
        for stmt in block.stmts:
            if stmt.op == "delite":
                delite_stmts[stmt.sym.name] = stmt
    if not delite_stmts:
        return 0

    tel = getattr(jit, "telemetry", None)
    fresh = fresh_syms(blocks)
    journal = []
    rejected = set()      # (consumer sym, producer sym): don't re-probe
    uses = _count_uses(blocks)
    fused = 0
    changed = True
    while changed:
        changed = False
        for block in blocks.values():
            for stmt in block.stmts:
                if stmt.op != "delite":
                    continue
                if _try_fuse(stmt, delite_stmts, uses, jit, journal,
                             rejected, fresh, tel):
                    uses = _count_uses(blocks)
                    fused += 1
                    changed = True
    if journal:
        findings = recheck_fusions(journal, fresh)
        if findings:
            if tel is not None:
                tel.record("fusion.recheck_fail", findings=list(findings))
            if diagnostics is not None:
                diagnostics.extend("error", "parsafe", findings)
            else:
                raise ParallelSafetyError(
                    "fusion re-check failed: %s" % "; ".join(findings),
                    findings=findings)
    return fused


def _count_uses(blocks):
    uses = {}

    def use(rep):
        if isinstance(rep, Sym):
            uses[rep.name] = uses.get(rep.name, 0) + 1

    for block in blocks.values():
        for stmt in block.stmts:
            for a in stmt.args:
                use(a)
        term = block.terminator
        if isinstance(term, Jump):
            for __, rep in term.phi_assigns:
                use(rep)
        elif isinstance(term, Branch):
            use(term.cond)
            for __, rep in term.true_assigns + term.false_assigns:
                use(rep)
        elif isinstance(term, Return):
            use(term.value)
        elif isinstance(term, (Deopt, OsrCompile)):
            for rep in term.lives:
                use(rep)
    return uses


def _producer_of(rep, delite_stmts, uses):
    if not isinstance(rep, Sym):
        return None
    if uses.get(rep.name, 0) != 1:
        return None      # intermediate observed elsewhere: keep it
    return delite_stmts.get(rep.name)


def _legal(kind, kernels, elem_reps, fresh, rejected, site, tel):
    """Preflight one candidate rewrite against the summaries; fires a
    ``fusion.reject`` event (once per site) on refusal."""
    ok, checker, reason = check_fusion(kind, kernels, elem_reps, fresh)
    if ok:
        return True
    if site not in rejected:
        rejected.add(site)
        if tel is not None:
            tel.inc("fusion.rejects")
            tel.record("fusion.reject", kind=kind, checker=checker,
                       reason=reason,
                       kernels=[k.name for k in kernels])
    return False


def _try_fuse(stmt, delite_stmts, uses, jit, journal, rejected, fresh, tel):
    from repro.delite.ops import (MapIndexedOp, MapOp, MapReduceOp,
                                  ReduceOp, ZipMapOp, ZipWithIndexOp)
    op = stmt.args[0]

    if isinstance(op, MapOp):
        producer = _producer_of(stmt.args[1], delite_stmts, uses)
        if producer is None:
            return False
        site = (stmt.sym.name, producer.sym.name)
        if site in rejected:
            return False
        pop = producer.args[0]
        if isinstance(pop, MapOp):
            kernels = (pop.kernel, op.kernel)
            elem_reps = tuple(producer.args[1:1 + pop.n_elem])
            if not _legal("map-map", kernels, elem_reps, fresh, rejected,
                          site, tel):
                return False
            fused = MapOp(pop.kernel.compose(op.kernel))
            stmt.args = (fused,) + tuple(producer.args[1:])
            journal.append(FusionRecord("map-map", stmt, fused, kernels,
                                        elem_reps))
            return True
        if isinstance(pop, ZipWithIndexOp) and jit is not None:
            if not _legal("soa", (op.kernel,), (), fresh, rejected, site,
                          tel):
                return False
            indexed = _indexify_kernel(jit, op.kernel)
            if indexed is not None:
                fused = MapIndexedOp(indexed)
                stmt.args = (fused,) + tuple(producer.args[1:])
                journal.append(FusionRecord("soa", stmt, fused,
                                            (op.kernel, indexed)))
                return True
        return False

    if isinstance(op, ReduceOp) and op.kernel is None:
        producer = _producer_of(stmt.args[1], delite_stmts, uses)
        if producer is None:
            return False
        site = (stmt.sym.name, producer.sym.name)
        if site in rejected:
            return False
        pop = producer.args[0]
        if isinstance(pop, (MapOp, ZipMapOp, MapIndexedOp)):
            kernels = (pop.kernel,)
            elem_reps = tuple(producer.args[1:1 + pop.n_elem])
            if not _legal("map-reduce", kernels, elem_reps, fresh,
                          rejected, site, tel):
                return False
        if isinstance(pop, MapOp):
            fused = MapReduceOp(pop.kernel, n_elem=1)
        elif isinstance(pop, ZipMapOp):
            fused = MapReduceOp(pop.kernel, n_elem=2)
        elif isinstance(pop, MapIndexedOp):
            fused = MapReduceOp(pop.kernel, n_elem=1, indexed=True)
        else:
            return False
        stmt.args = (fused,) + tuple(producer.args[1:])
        journal.append(FusionRecord("map-reduce", stmt, fused,
                                    (pop.kernel,),
                                    tuple(stmt.args[1:1 + pop.n_elem])))
        return True
    return False


def _indexify_kernel(jit, pair_kernel):
    """Recompile a Pair-taking kernel as a two-argument (value, index)
    kernel. The synthesized wrapper allocates the Pair, and Lancet's
    scalar replacement removes it — this is the SoA conversion."""
    from repro.bytecode.opcodes import Op
    from repro.delite.kernels import Kernel
    from repro.runtime.objects import new_instance

    closure = getattr(pair_kernel, "guest_closure", None)
    if closure is None or "Pair" not in jit.vm.linker.classes:
        return None
    name = jit.vm.linker.synth_class_name("Delite$SoA")
    cf = ClassFile(name, is_closure=True)
    cf.add_field("f", is_val=True)
    b = MethodBuilder("apply", 2, is_static=False)
    # return this.f.apply(new Pair(x, i))
    b.load(0).getfield("f")
    b.new("Pair").emit(Op.DUP).load(1).load(2).invoke("init", 2)
    b.emit(Op.POP)
    b.invoke("apply", 1)
    b.ret_val()
    cf.add_method(b.build())
    jit.vm.load_classes([cf])
    wrapper = new_instance(jit.vm.linker.resolve_class(name))
    wrapper.fields["f"] = closure
    kernel = Kernel.from_closure(jit, wrapper, name="soa:%s"
                                 % pair_kernel.name)
    return kernel
