"""IR well-formedness verifier.

Run after staging and again after block fusion / DCE (gated by
``CompileOptions.verify_ir``), this pass catches compiler bugs at the
point they are introduced instead of as ``NameError`` inside generated
code or, worse, silently wrong results. Checked invariants:

* every block ends in exactly one known terminator, and every successor
  edge targets an existing block;
* every block is reachable from the entry (the staged interpreter never
  emits orphan blocks; fusion deletes the blocks it absorbs);
* phi discipline: the ``(param, rep)`` assignments on an edge into a
  merge block name exactly the target's declared block parameters;
* def-before-use: along **every** path, each ``Sym`` operand is defined
  (by a statement, a block parameter, or a function parameter) before it
  is read — computed as a forward must-analysis (intersection over
  predecessors), i.e. availability == dominance for our block-arg SSA;
* deopt metadata: guard statements and Deopt/OsrCompile terminators
  reference an existing metadata id, and their live sets are Reps;
* no value read from a guard or a store: their syms are never assigned
  in generated code, so no statement or terminator may use one.
"""

from __future__ import annotations

from repro.analysis.cfg import phi_assigns_for_edge, predecessors, \
    reachable_from, reverse_postorder
from repro.errors import IRVerifyError
from repro.lms.ir import Branch, Deopt, Jump, OsrCompile, Return
from repro.lms.rep import Rep, Sym

_TERMINATORS = (Jump, Branch, Return, Deopt, OsrCompile)
#: Ops whose sym holds no value.
_VOID_OPS = ("guard", "guard_not", "putfield", "putfield_stablecheck",
            "astore")


def verify_ir(blocks, entry_id, params=(), metas=None, stage="staged",
              collect=False):
    """Verify the CFG; raises :class:`IRVerifyError` listing every
    violation (or returns the list of messages when ``collect=True``)."""
    errors = []
    if entry_id not in blocks:
        errors.append("entry block B%d does not exist" % entry_id)
        return _finish(errors, stage, collect)

    _check_shape(blocks, errors)
    if not errors:
        _check_reachability(blocks, entry_id, errors)
        _check_phi_discipline(blocks, errors)
        _check_defs(blocks, entry_id, params, errors)
        _check_deopt_metadata(blocks, metas, errors)
        _check_void_reads(blocks, errors)
    return _finish(errors, stage, collect)


def _finish(errors, stage, collect):
    if collect:
        return errors
    if errors:
        raise IRVerifyError(
            "IR verification failed (%s IR): %s"
            % (stage, "; ".join(errors)), errors=errors, stage=stage)
    return []


def _check_shape(blocks, errors):
    for bid, block in blocks.items():
        term = block.terminator
        if term is None:
            errors.append("B%d has no terminator" % bid)
            continue
        if not isinstance(term, _TERMINATORS):
            errors.append("B%d has unknown terminator %r" % (bid, term))
            continue
        for succ in term.successors():
            if succ not in blocks:
                errors.append("B%d jumps to missing block B%d" % (bid, succ))


def _check_reachability(blocks, entry_id, errors):
    reachable = reachable_from(blocks, entry_id)
    for bid in sorted(blocks):
        if bid not in reachable:
            errors.append("B%d is unreachable from entry B%d"
                          % (bid, entry_id))


def _check_phi_discipline(blocks, errors):
    for bid, block in blocks.items():
        for succ in set(block.terminator.successors()):
            if succ not in blocks:
                continue
            assigns = phi_assigns_for_edge(block.terminator, succ)
            target_params = list(blocks[succ].params)
            # A Branch with both arms on the same successor concatenates
            # its assign lists; each arm must match independently.
            arms = 2 if (isinstance(block.terminator, Branch)
                         and block.terminator.true_target == succ
                         and block.terminator.false_target == succ) else 1
            expected = target_params * arms
            names = [name for name, __ in assigns]
            if names != expected:
                errors.append(
                    "phi mismatch on edge B%d->B%d: assigns %r but target "
                    "declares params %r" % (bid, succ, names, target_params))
            for __, rep in assigns:
                if not isinstance(rep, Rep):
                    errors.append("non-Rep phi value %r on edge B%d->B%d"
                                  % (rep, bid, succ))


def _check_defs(blocks, entry_id, params, errors):
    """Forward must-analysis of available definitions; flags any use of a
    name not defined on every path to it."""
    preds = predecessors(blocks)
    order = reverse_postorder(blocks, entry_id)
    root = frozenset(params)
    avail_out = {}        # bid -> frozenset of names available at exit

    def block_out(bid, avail_in):
        defs = set(avail_in)
        defs.update(blocks[bid].params)
        for stmt in blocks[bid].stmts:
            defs.add(stmt.sym.name)
        return frozenset(defs)

    changed = True
    while changed:
        changed = False
        for bid in order:
            if bid == entry_id:
                avail_in = root
            else:
                pred_outs = [avail_out[p] for p in preds[bid]
                             if p in avail_out]
                if not pred_outs:
                    continue          # no processed predecessor yet
                avail_in = frozenset.intersection(*pred_outs)
            out = block_out(bid, avail_in)
            if avail_out.get(bid) != out:
                avail_out[bid] = out
                changed = True

    for bid in order:
        if bid == entry_id:
            defined = set(root)
        else:
            pred_outs = [avail_out[p] for p in preds[bid] if p in avail_out]
            defined = set(frozenset.intersection(*pred_outs)) \
                if pred_outs else set()
        defined.update(blocks[bid].params)
        for stmt in blocks[bid].stmts:
            for arg in stmt.args:
                if isinstance(arg, Sym) and arg.name not in defined:
                    errors.append(
                        "B%d: %r uses %s before definition"
                        % (bid, stmt, arg.name))
            defined.add(stmt.sym.name)
        term = blocks[bid].terminator
        for rep in _term_reps(term):
            if isinstance(rep, Sym) and rep.name not in defined:
                errors.append("B%d: terminator %r uses %s before definition"
                              % (bid, term, rep.name))


def _term_reps(term):
    if isinstance(term, Jump):
        return [rep for __, rep in term.phi_assigns]
    if isinstance(term, Branch):
        return [term.cond] + [rep for __, rep in term.true_assigns] \
            + [rep for __, rep in term.false_assigns]
    if isinstance(term, Return):
        return [term.value]
    if isinstance(term, (Deopt, OsrCompile)):
        return list(term.lives)
    return []


def _check_deopt_metadata(blocks, metas, errors):
    n_metas = None if metas is None else len(metas)

    def check_meta(bid, what, meta_id):
        if not isinstance(meta_id, int):
            errors.append("B%d: %s has non-integer meta id %r"
                          % (bid, what, meta_id))
        elif n_metas is not None and not 0 <= meta_id < n_metas:
            errors.append("B%d: %s references deopt meta #%r (have %d)"
                          % (bid, what, meta_id, n_metas))

    for bid, block in blocks.items():
        for stmt in block.stmts:
            if stmt.op in ("guard", "guard_not"):
                if len(stmt.args) < 2:
                    errors.append("B%d: malformed guard %r" % (bid, stmt))
                    continue
                check_meta(bid, "guard", stmt.args[1])
                for rep in stmt.args[2:]:
                    if not isinstance(rep, Rep):
                        errors.append("B%d: guard live value %r is not a Rep"
                                      % (bid, rep))
            elif stmt.op == "make_cont":
                check_meta(bid, "make_cont", stmt.args[0])
        term = block.terminator
        if isinstance(term, (Deopt, OsrCompile)):
            check_meta(bid, type(term).__name__, term.meta_id)
            for rep in term.lives:
                if not isinstance(rep, Rep):
                    errors.append("B%d: deopt live value %r is not a Rep"
                                  % (bid, rep))


def _check_void_reads(blocks, errors):
    void = {stmt.sym.name: stmt.op for block in blocks.values()
            for stmt in block.stmts if stmt.op in _VOID_OPS}
    if not void:
        return
    for bid, block in blocks.items():
        reads = [(stmt, arg) for stmt in block.stmts for arg in stmt.args]
        reads += [(block.terminator, rep)
                  for rep in _term_reps(block.terminator)]
        for user, arg in reads:
            if isinstance(arg, Sym) and arg.name in void:
                errors.append("B%d: %r reads %s, which a %s never assigns"
                              % (bid, user, arg.name, void[arg.name]))
