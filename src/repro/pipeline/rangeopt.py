"""Range-based guard pruning and branch folding.

Runs the interval analysis (:mod:`repro.analysis.ranges`) over the staged
CFG and removes checks it proves:

* a ``guard`` whose condition is provably truthy (or ``guard_not``
  provably falsy) can never deoptimize — the deoptimization point
  disappears, which both shrinks the emitted code and lets more units
  satisfy ``checkNoAlloc``'s "no deoptimization points" demand;
* a ``Branch`` whose condition is decided folds to a ``Jump``, and blocks
  made unreachable by the folding are deleted (the verifier requires full
  reachability, so this is mandatory, not cosmetic).

Every removal records a provenance string — which check, defined where,
and the interval that proved it — surfaced through ``Lancet.analyze`` so
the "surgical precision" story stays inspectable.
"""

from __future__ import annotations

from repro.analysis.cfg import reachable_from
from repro.analysis.fuse import fuse_blocks
from repro.analysis.ranges import range_facts
from repro.lms.ir import Branch, Effect, Jump, Stmt
from repro.lms.rep import ConstRep


def _fmt_interval(iv):
    lo, hi = iv
    return "[%s, %s]" % ("-inf" if lo is None else lo,
                         "+inf" if hi is None else hi)


def _provenance(stmt):
    src = stmt.flags.get("src")
    if not src:
        return ""
    return " in %s (bci %d)" % (src[0], src[1])


def _proven_truthy(iv):
    """True/False when the interval decides truthiness, else None. An
    interval's presence already implies the value is a number (or bool),
    so nonzero == truthy."""
    if iv is None:
        return None
    lo, hi = iv
    if (lo is not None and lo > 0) or (hi is not None and hi < 0):
        return True
    if lo == 0 and hi == 0:
        return False
    return None


def prune_range_guards(blocks, entry_id, params=()):
    """Run guard pruning + branch folding in place; returns
    ``(guards_removed, branches_folded, provenance, transfers)``, the
    last being the solver's block-transfer count."""
    analysis, facts = range_facts(blocks, entry_id, params)
    guards_removed = 0
    branches_folded = 0
    provenance = []

    for bid in sorted(blocks):
        env = facts[bid][0] if bid in facts else None
        if env is None:
            continue                     # unreachable (verifier reports it)
        env = dict(env)
        for i, stmt in enumerate(list(blocks[bid].stmts)):
            if stmt.op in ("guard", "guard_not"):
                cond = stmt.args[0]
                want = stmt.op == "guard"
                iv = analysis.value_of(cond, env)
                proven = _proven_truthy(iv)
                if proven is not None and proven == want:
                    blocks[bid].stmts[i] = Stmt(
                        stmt.sym, "id", (ConstRep(None),), Effect.PURE,
                        stmt.flags)
                    guards_removed += 1
                    provenance.append(
                        "%s%s proven redundant by range analysis: "
                        "condition in %s"
                        % (stmt.op, _provenance(stmt), _fmt_interval(iv)))
                # Pruned or not, the condition holds past this point.
                env = analysis.assume(cond, want, env)
                continue
            iv = analysis.stmt_interval(stmt, env)
            if iv != (None, None):
                env[stmt.sym.name] = iv
            else:
                env.pop(stmt.sym.name, None)

        term = blocks[bid].terminator
        if isinstance(term, Branch):
            iv = analysis.value_of(term.cond, env)
            proven = _proven_truthy(iv)
            if proven is True:
                blocks[bid].terminator = Jump(term.true_target,
                                              term.true_assigns)
            elif proven is False:
                blocks[bid].terminator = Jump(term.false_target,
                                              term.false_assigns)
            if proven is not None:
                branches_folded += 1
                provenance.append(
                    "branch in block %s folded to %s arm by range "
                    "analysis: condition in %s"
                    % (bid, "true" if proven else "false",
                       _fmt_interval(iv)))

    if branches_folded:
        live = reachable_from(blocks, entry_id)
        for bid in [b for b in blocks if b not in live]:
            del blocks[bid]
        fuse_blocks(blocks, entry_id)
    return guards_removed, branches_folded, provenance, facts.transfers
