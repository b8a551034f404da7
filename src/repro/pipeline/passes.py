"""The PassManager: a declarative, per-tier IR pass list.

One pass list per tier, run between staging and code generation:

* **Tier 1** (quick compile): ``fuse`` only — a single linear sweep so
  warmup compiles stay cheap.
* **Tier 2** (optimizing compile): ``verify.staged`` → ``fuse`` →
  ``parsafe`` → ``gvn`` → ``licm`` → ``sink`` → ``range`` → ``dce`` →
  ``guards`` → ``verify.optimized`` → ``taint`` → ``alloc``.

Order encodes the semantics this package exists for: the verifier runs
where IR is produced and again after the optimizer (which must preserve
well-formedness); ``gvn`` runs first so copies collapse and later passes
see canonical names; ``licm`` before ``sink`` so hoisting does not pin
allocations; ``range`` before ``dce`` so neutralized guards and folded
branches leave dead code for DCE to sweep; taint runs over the
*optimized* CFG; ``checkNoAlloc`` runs post-DCE so dead and sunk
allocations are gone and only allocations surviving into generated code
are reported. The analysis-powered optimization passes are individually
gated by ``CompileOptions`` flags (``opt_gvn``/``opt_licm``/
``opt_scalar_replace``/``opt_range_guards``).

Every pass run is timed and counted: wall time lands in the metrics
registry under ``pass.<name>`` and per-unit in
``CompileReport.pass_stats`` together with before/after block and
statement counts; a ``pass.run`` trace event fires per pass. The legacy
``analysis.*`` phase keys in ``CompileReport.phases`` are kept so
``Lancet.stats()['phase_timings']`` stays stable.

With ``CompileOptions.validate_passes``/``verify_deopt`` set, the
speculation-soundness checkers interleave with the pass list: the
translation validator (:mod:`repro.analysis.validate`) snapshots the IR
before each validated pass and checks the simulation relation after it,
and the deopt-state verifier (:mod:`repro.analysis.deoptcheck`) re-checks
every guard/side-exit's state map at each checkpoint. Checkpoint timings
and finding counts land in ``CompileReport.pass_stats`` as
``validate.<pass>`` entries plus ``validate.fail`` trace events.

In *enforce* mode (normal compilation) violations raise
:class:`IRVerifyError` / :class:`TaintError` / :class:`NoAllocError` /
:class:`TranslationValidationError` / :class:`DeoptStateError`; in
*collect* mode (``Lancet.analyze``) they become structured findings on a
:class:`~repro.analysis.diagnostics.Diagnostics` and compilation
continues.
"""

from __future__ import annotations

import time

from repro.analysis.alloc import check_noalloc, sunk_detail
from repro.analysis.dce import eliminate_dead, eliminate_redundant_guards
from repro.analysis.deoptcheck import check_deopt_state
from repro.analysis.fuse import fuse_blocks
from repro.analysis.taint import find_leaks
from repro.analysis.validate import (VALIDATED_PASSES, snapshot_ir,
                                     validate_pass)
from repro.analysis.verify import verify_ir
from repro.errors import (DeoptStateError, IRVerifyError, NoAllocError,
                          TaintError, TranslationValidationError)
from repro.pipeline.gvn import global_value_numbering
from repro.pipeline.licm import hoist_loop_invariants
from repro.pipeline.rangeopt import prune_range_guards
from repro.pipeline.sink import sink_allocations

#: Legacy CompileReport.phases key each pass accumulates into.
_LEGACY_PHASE = {
    "verify.staged": "analysis.verify",
    "verify.optimized": "analysis.verify",
    "fuse": "analysis.optimize",
    "gvn": "analysis.optimize",
    "licm": "analysis.optimize",
    "sink": "analysis.optimize",
    "range": "analysis.optimize",
    "dce": "analysis.optimize",
    "guards": "analysis.optimize",
    "taint": "analysis.taint",
    "alloc": "analysis.alloc",
}

#: Declarative per-tier pass lists (tier 0 never reaches the pipeline).
#: ``parsafe`` (the Delite parallel-safety classifier) runs right after
#: block fusion so it sees the final op descriptors; it only reports
#: (flags + telemetry + diagnostics) and never rewrites, and it is
#: skipped entirely unless the parsafe mode is on or the manager is in
#: collect mode.
TIER_PASSES = {
    1: ("fuse",),
    2: ("verify.staged", "fuse", "parsafe", "gvn", "licm", "sink", "range",
        "dce", "guards", "verify.optimized", "taint", "alloc"),
}

#: CompileOptions attribute gating each optional pass.
_PASS_FLAG = {
    "gvn": "opt_gvn",
    "licm": "opt_licm",
    "sink": "opt_scalar_replace",
    "range": "opt_range_guards",
}


def _cfg_size(result):
    return (len(result.blocks),
            sum(len(b.stmts) for b in result.blocks.values()))


class PassManager:
    """Runs the per-tier pass list over a CompileResult, in place.

    ``diagnostics`` switches the manager into collect mode: findings are
    appended there instead of raising. The tier is taken from
    ``options.tier`` unless overridden per ``run`` call.
    """

    def __init__(self, options, telemetry=None, diagnostics=None):
        self.options = options
        self.telemetry = telemetry
        self.diagnostics = diagnostics

    # -- helpers ---------------------------------------------------------------

    def _tel_record(self, kind, /, **data):
        if self.telemetry is not None:
            self.telemetry.record(kind, **data)

    def _finish_pass(self, name, result, t0, size_before, report, info):
        seconds = time.perf_counter() - t0
        blocks_after, stmts_after = _cfg_size(result)
        if self.telemetry is not None:
            self.telemetry.observe("pass.%s" % name, seconds)
        self._tel_record("pass.run", name=name, seconds=seconds,
                         blocks_before=size_before[0],
                         blocks_after=blocks_after,
                         stmts_before=size_before[1],
                         stmts_after=stmts_after, **(info or {}))
        if report is not None:
            report.pass_stats.append({
                "pass": name, "seconds": seconds,
                "blocks_before": size_before[0],
                "blocks_after": blocks_after,
                "stmts_before": size_before[1],
                "stmts_after": stmts_after,
            })
            legacy = _LEGACY_PHASE.get(name)
            if legacy is not None:
                report.phases[legacy] = report.phases.get(legacy, 0.0) \
                    + seconds

    def _checkpoint(self, pname, snapshot, result, name, report):
        """One interleaved speculation-soundness check point: the
        translation validator against ``snapshot`` (when the pass was
        snapshotted) plus the deopt-state verifier. Raises in enforce
        mode; returns the finding count in collect mode."""
        t0 = time.perf_counter()
        findings = validate_pass(pname, snapshot, result) \
            if snapshot is not None else []
        deopt_findings = check_deopt_state(result, unit=name) \
            if self.options.verify_deopt else []
        seconds = time.perf_counter() - t0
        if self.telemetry is not None:
            self.telemetry.observe("validate.%s" % pname, seconds)
            self.telemetry.inc("validate.checkpoints")
        if report is not None:
            report.pass_stats.append({
                "pass": "validate.%s" % pname, "seconds": seconds,
                "findings": len(findings),
                "deopt_findings": len(deopt_findings),
            })
        if not findings and not deopt_findings:
            return 0
        self._tel_record("validate.fail", unit=name, pass_name=pname,
                         findings=list(findings),
                         deopt_findings=list(deopt_findings))
        if self.diagnostics is not None:
            self.diagnostics.extend("error", "validate", findings)
            self.diagnostics.extend("error", "deoptcheck", deopt_findings)
            return len(findings) + len(deopt_findings)
        if findings:
            raise TranslationValidationError(
                "translation validation failed for %s after pass %s: %s"
                % (name, pname, "; ".join(findings)),
                pass_name=pname, findings=findings)
        raise DeoptStateError(
            "deopt-state verification failed for %s after pass %s: %s"
            % (name, pname, "; ".join(deopt_findings)),
            pass_name=pname, findings=deopt_findings)

    def _verify(self, result, name, stage):
        errors = verify_ir(result.blocks, result.entry_bid,
                           params=result.param_names, metas=result.metas,
                           stage=stage, collect=True)
        if not errors:
            return {}
        self._tel_record("analysis.verify_fail", unit=name, stage=stage,
                         errors=list(errors))
        if self.diagnostics is not None:
            self.diagnostics.extend("error", "verify",
                                    ["%s IR: %s" % (stage, e)
                                     for e in errors])
            return {"errors": len(errors)}
        raise IRVerifyError(
            "IR verification failed for %s (%s IR): %s"
            % (name, stage, "; ".join(errors)), errors=errors, stage=stage)

    # -- the pipeline ----------------------------------------------------------

    def passes_for(self, tier):
        """The effective pass list for ``tier`` under current options:
        verify passes only run with ``verify_ir`` (or in collect mode),
        and demanded analyses (``checkNoAlloc``/``checkNoTaint``) upgrade
        a Tier-1 list to the full one — a demanded check must never be
        silently skipped for warmup speed."""
        verify = self.options.verify_ir or self.diagnostics is not None
        parsafe = self.options.parsafe != "off" \
            or self.diagnostics is not None
        if tier == 1 and (self.options.check_noalloc
                          or self.options.check_taint):
            tier = 2
        names = TIER_PASSES.get(tier, TIER_PASSES[2])
        names = tuple(n for n in names
                      if getattr(self.options, _PASS_FLAG.get(n, ""), True))
        names = tuple(n for n in names if parsafe or n != "parsafe")
        return tuple(n for n in names
                     if verify or not n.startswith("verify."))

    def run(self, result, name, tier=None, report=None):
        """Run the tier's pass list over ``result`` in place; returns a
        summary dict (also emitted as an ``analysis.report`` event)."""
        diag = self.diagnostics
        tier = self.options.tier if tier is None else tier
        summary = {"removed_stmts": 0, "removed_guards": 0, "leaks": 0,
                   "noalloc_sites": 0, "gvn_removed": 0, "licm_hoisted": 0,
                   "sunk_allocs": 0, "range_pruned_guards": 0,
                   "folded_branches": 0, "parsafe_proven": 0,
                   "parsafe_unproven": 0}
        leaks, sites, sunk, range_detail = [], [], [], []
        parsafe_verdicts = []
        ir_bad = False
        validate = self.options.validate_passes
        deoptchk = self.options.verify_deopt
        summary["validate_checkpoints"] = 0
        summary["validate_findings"] = 0
        if deoptchk:
            # Baseline checkpoint: the staged IR's deopt state must be
            # sound before any pass touches it.
            summary["validate_checkpoints"] += 1
            summary["validate_findings"] += self._checkpoint(
                "staged", None, result, name, report)

        for pname in self.passes_for(tier):
            if ir_bad and pname in _PASS_FLAG:
                # Collect mode continues past verify errors, but running
                # optimizations over ill-formed IR would only manufacture
                # bogus findings.
                continue
            checked = pname in VALIDATED_PASSES and not ir_bad \
                and (validate or deoptchk)
            snapshot = snapshot_ir(result) if checked and validate else None
            t0 = time.perf_counter()
            size_before = _cfg_size(result)
            info = None
            if pname == "verify.staged":
                info = self._verify(result, name, "staged")
                ir_bad = bool(info.get("errors"))
            elif pname == "fuse":
                fuse_blocks(result.blocks, result.entry_bid)
            elif pname == "parsafe":
                from repro.analysis.parsafe import classify_blocks
                parsafe_verdicts = classify_blocks(result.blocks)
                proven = sum(1 for _, v in parsafe_verdicts
                             if v.proven_parallel)
                summary["parsafe_proven"] = proven
                summary["parsafe_unproven"] = len(parsafe_verdicts) - proven
                info = {"ops": len(parsafe_verdicts), "proven": proven}
                for vstmt, v in parsafe_verdicts:
                    self._tel_record("parsafe.verdict", unit=name,
                                     sym=vstmt.sym.name, op=v.op_kind,
                                     op_name=v.op_name, verdict=v.status,
                                     checker=v.checker, blame=v.blame,
                                     kernel=v.kernel_name)
            elif pname == "gvn":
                stats = global_value_numbering(result.blocks,
                                               result.entry_bid)
                summary["gvn_removed"] = sum(stats.values())
                info = dict(stats)
            elif pname == "licm":
                summary["licm_hoisted"] = hoist_loop_invariants(
                    result.blocks, result.entry_bid)
                info = {"hoisted": summary["licm_hoisted"]}
            elif pname == "sink":
                sunk = sink_allocations(result.blocks, result.entry_bid)
                summary["sunk_allocs"] = len(sunk)
                info = {"sunk": len(sunk)}
            elif pname == "range":
                pruned, folded, range_detail, transfers = \
                    prune_range_guards(result.blocks, result.entry_bid,
                                       result.param_names)
                summary["range_pruned_guards"] = pruned
                summary["folded_branches"] = folded
                info = {"pruned": pruned, "folded": folded,
                        "transfers": transfers}
            elif pname == "dce":
                summary["removed_stmts"] = eliminate_dead(result.blocks,
                                                          result.entry_bid)
                info = {"removed": summary["removed_stmts"]}
            elif pname == "guards":
                summary["removed_guards"] = \
                    eliminate_redundant_guards(result.blocks)
                info = {"removed": summary["removed_guards"]}
            elif pname == "verify.optimized":
                info = self._verify(result, name, "optimized")
            elif pname == "taint":
                leaks = find_leaks(result.blocks, result.entry_bid,
                                   result.taint_branch_sinks)
                summary["leaks"] = len(leaks)
                info = {"leaks": len(leaks)}
            elif pname == "alloc":
                sites = check_noalloc(result.blocks, result.noalloc_sites)
                summary["noalloc_sites"] = len(sites)
                info = {"sites": len(sites)}
            else:  # pragma: no cover - pass lists are closed above
                raise AssertionError("unknown pass %r" % (pname,))
            self._finish_pass(pname, result, t0, size_before, report, info)
            if checked:
                summary["validate_checkpoints"] += 1
                summary["validate_findings"] += self._checkpoint(
                    pname, snapshot, result, name, report)

        summary["blocks"] = len(result.blocks)
        summary["warnings"] = len(result.warnings)
        summary["tier"] = tier
        self._tel_record("analysis.report", unit=name, **summary)

        if diag is not None:
            diag.extend("error", "taint", leaks)
            diag.extend("error", "noalloc", sites)
            diag.extend("warning", "compile",
                        [str(w) for w in result.warnings])
            diag.add("info", "dce", "%d dead statement(s) removed"
                     % summary["removed_stmts"])
            if summary["removed_guards"]:
                diag.add("info", "guards", "%d redundant guard(s) removed"
                         % summary["removed_guards"])
            if summary["gvn_removed"]:
                diag.add("info", "gvn", "%d redundant value(s) eliminated "
                         "by value numbering" % summary["gvn_removed"])
            if summary["licm_hoisted"]:
                diag.add("info", "licm", "%d loop-invariant statement(s) "
                         "hoisted" % summary["licm_hoisted"])
            diag.extend("info", "sink", sunk_detail(sunk))
            diag.extend("info", "range", range_detail)
            for vstmt, v in parsafe_verdicts:
                sev = "info" if v.proven_parallel else "warning"
                payload = dict(v.to_dict(), sym=vstmt.sym.name)
                diag.add(sev, "parsafe",
                         "%s %s (%s): %s [%s] — %s"
                         % (vstmt.sym.name, v.op_name, v.op_kind,
                            v.status, v.checker, v.blame),
                         data=payload)
            if summary["validate_checkpoints"]:
                diag.add("info", "validate",
                         "%d speculation-soundness checkpoint(s), "
                         "%d finding(s)"
                         % (summary["validate_checkpoints"],
                            summary["validate_findings"]))
            return summary

        if leaks:
            raise TaintError(
                "taint analysis of %s found %d leak(s): %s"
                % (name, len(leaks), "; ".join(leaks)), leaks=leaks)
        if sites:
            suffix = ""
            if sunk:
                suffix = (" (%d other allocation(s) were sunk by scalar "
                          "replacement)" % len(sunk))
            raise NoAllocError(
                "checkNoAlloc failed for %s: %d residual allocation/deopt "
                "site(s): %s%s" % (name, len(sites), "; ".join(sites),
                                   suffix),
                sites=sites)
        return summary
