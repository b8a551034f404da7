"""Deopt-state verifier: static checks on speculation side-exit state.

Every guard, ``slowpath``/``fastpath`` site, reified continuation, and
stitched trace bridge carries a :class:`~repro.compiler.deopt.DeoptMeta`
describing the interpreter state to rebuild if the speculation fails.
PR 6's fuzzer-found soundness bug (a stitched bridge writing a loop-header
slot whose block parameter the optimizer had pruned) lived exactly in
that state map.  This pass makes the whole class a *static* diagnostic
with bytecode provenance instead of a fuzzing lottery:

* every ``Sym`` in a site's live set must be **defined on every path**
  to the site (forward must-availability, the same relation the IR
  verifier uses for ordinary operands);
* every frame template's ``("live", i)`` indices must be in range of
  the site's live set, and virtual-object templates must resolve
  recursively;
* every interpreter local slot that is **live at the frame's resume
  bci** (per bytecode liveness) must have a state template, and no slot
  may map to a pruned loop-header parameter — the PR 6 bug class, now
  reported as ``"live slot N of M at bci B maps to pruned header param
  p1_N"``;
* :func:`check_bridge_stitch` runs the same invariant at trace-stitch
  time, before the bad back edge is ever built.

Run by the PassManager at every validation checkpoint when
``CompileOptions.verify_deopt`` is set; findings raise
:class:`~repro.errors.DeoptStateError` in enforce mode and become
``deoptcheck`` diagnostics in collect mode.
"""

from __future__ import annotations

import re

from repro.analysis.cfg import predecessors, reverse_postorder
from repro.analysis.liveness import live_at
from repro.compiler.deopt import VirtualArray, VirtualObject
from repro.lms.ir import Deopt, OsrCompile
from repro.lms.rep import Sym

#: Loop-header / merge-block parameter names as staging and the trace
#: manager mint them (``p<block>_<slot>``).
_HEADER_PARAM = re.compile(r"^p\d+_\d+$")


def _available_in(blocks, entry_id, params):
    """Forward must-analysis: ``{bid: names defined on every path in}``
    (availability == dominance for the block-argument SSA form)."""
    preds = predecessors(blocks)
    order = reverse_postorder(blocks, entry_id)
    root = frozenset(params)
    avail_out = {}

    def block_out(bid, avail_in):
        defs = set(avail_in)
        defs.update(blocks[bid].params)
        defs.update(s.sym.name for s in blocks[bid].stmts)
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
                    continue
                avail_in = frozenset.intersection(*pred_outs)
            out = block_out(bid, avail_in)
            if avail_out.get(bid) != out:
                avail_out[bid] = out
                changed = True

    avail_in = {}
    for bid in order:
        if bid == entry_id:
            avail_in[bid] = root
        else:
            pred_outs = [avail_out[p] for p in preds[bid] if p in avail_out]
            avail_in[bid] = frozenset.intersection(*pred_outs) \
                if pred_outs else frozenset()
    return avail_in


def _classify(rep, defined, all_defs):
    """Why is ``rep`` bad at this site?  Returns a message suffix or
    None when the value is fine."""
    if not isinstance(rep, Sym):
        return None
    if rep.name in defined:
        return None
    if rep.name not in all_defs and _HEADER_PARAM.match(rep.name):
        return "maps to pruned header param %s" % rep.name
    return "uses %s, which is not defined on every path to the site" \
        % rep.name


def check_deopt_state(result, unit=""):
    """Verify every deopt site of ``result`` against bytecode-level
    liveness; returns a list of finding strings with bci provenance."""
    blocks, entry = result.blocks, result.entry_bid
    metas = result.metas
    findings = []
    avail_in = _available_in(blocks, entry, result.param_names)
    all_defs = set(result.param_names)
    for block in blocks.values():
        all_defs.update(block.params)
        all_defs.update(s.sym.name for s in block.stmts)

    def check_template(template, lives, defined, where, slot_desc):
        if not isinstance(template, tuple) or not template:
            findings.append("%s: %s has malformed state template %r"
                            % (where, slot_desc, template))
            return
        kind = template[0]
        if kind == "live":
            idx = template[1]
            if not isinstance(idx, int) or not 0 <= idx < len(lives):
                findings.append(
                    "%s: %s references live value #%r (site has %d)"
                    % (where, slot_desc, idx, len(lives)))
                return
            why = _classify(lives[idx], defined, all_defs)
            if why is not None:
                findings.append("%s: %s %s" % (where, slot_desc, why))
        elif kind in ("const", "static"):
            pass
        elif kind == "virtual":
            vobj = template[1]
            if isinstance(vobj, VirtualArray):
                for i, t in enumerate(vobj.elems):
                    check_template(t, lives, defined, where,
                                   "%s[%d]" % (slot_desc, i))
            elif isinstance(vobj, VirtualObject):
                for fname, t in vobj.fields.items():
                    check_template(t, lives, defined, where,
                                   "%s.%s" % (slot_desc, fname))
            else:
                findings.append("%s: %s is a virtual of unknown shape %r"
                                % (where, slot_desc, vobj))
        else:
            findings.append("%s: %s has unknown template kind %r"
                            % (where, slot_desc, kind))

    def check_site(bid, what, meta_id, lives, defined, full=True):
        if not isinstance(meta_id, int) or not 0 <= meta_id < len(metas):
            findings.append("B%d: %s references missing deopt meta %r"
                            % (bid, what, meta_id))
            return
        meta = metas[meta_id]
        leaf = meta.frames[-1] if meta.frames else None
        prov = ("%s bci %d" % (leaf.method.qualified_name, leaf.bci)
                if leaf is not None else "<no frames>")
        site = "B%d %s (meta #%d, %s)" % (bid, what, meta_id, prov)
        for k, rep in enumerate(lives):
            why = _classify(rep, defined, all_defs)
            if why is not None:
                findings.append("%s: live[%d] %s" % (site, k, why))
        if not full:
            return
        for ft in meta.frames:
            where = "%s: frame %s at bci %d" \
                % (site, ft.method.qualified_name, ft.bci)
            for slot in sorted(live_at(ft.method, ft.bci)):
                if slot >= len(ft.locals_t):
                    findings.append(
                        "%s: live slot %d has no state template"
                        % (where, slot))
                    continue
                check_template(ft.locals_t[slot], lives, defined, where,
                               "live slot %d" % slot)
            for i, t in enumerate(ft.stack_t):
                check_template(t, lives, defined, where, "stack[%d]" % i)

    for bid in sorted(blocks):
        block = blocks[bid]
        defined = set(avail_in.get(bid, ())) | set(block.params)
        for stmt in block.stmts:
            if stmt.op in ("guard", "guard_not") and len(stmt.args) >= 2:
                check_site(bid, stmt.op, stmt.args[1], stmt.args[2:],
                           defined)
            elif stmt.op == "make_cont" and stmt.args:
                # A continuation's frames resume with runtime-supplied
                # values; check live indices but not slot coverage.
                check_site(bid, "make_cont", stmt.args[0], stmt.args[1:],
                           defined, full=False)
            defined.add(stmt.sym.name)
        term = block.terminator
        if isinstance(term, (Deopt, OsrCompile)):
            check_site(bid, type(term).__name__.lower(), term.meta_id,
                       term.lives, defined)
    return findings


def check_bridge_stitch(result, live_slots, start_locals, end_locals,
                        method, header_bci, header_bid=1):
    """The PR 6 bug class at its source, before the bad edge exists.

    A finished bridge recording is about to be stitched back to the
    trace's loop header.  The optimizer may have pruned loop-invariant
    header params; a bridge that ends with another value in such a slot
    (``end_locals`` differs from ``start_locals``, the values the trace
    enters its header with) has nowhere to carry it on the pruned back
    edge — the stitched loop would silently re-run from the entry value
    forever.  Returns finding strings with bytecode
    provenance (also surfaced through telemetry by the stitcher, which
    refuses the stitch)."""
    header = result.blocks.get(header_bid)
    if header is None:
        return ["bridge stitch: trace has no header block B%d"
                % header_bid]
    retained = set(header.params)
    findings = []
    for slot in live_slots:
        if "p%d_%d" % (header_bid, slot) in retained:
            continue
        if end_locals[slot] != start_locals[slot]:
            findings.append(
                "bridge writes pruned invariant slot %d (local %d of %s "
                "at bci %d): the stitched back edge cannot carry the new "
                "value" % (slot, slot, method.qualified_name, header_bci))
    return findings
