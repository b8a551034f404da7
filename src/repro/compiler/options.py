"""Compilation options.

The paper's stance is "you get what you ask for": these knobs are explicit
program-facing policy, not hidden heuristics. Defaults follow the paper
(inline non-recursive methods always, fold final fields, etc.).

This is the only module that reads the process environment. A
``REPRO_*`` variable only supplies the default of the option whose
comment names it, read when the options are built, so an explicit
argument always wins (README, "Environment variables", has the table).
"""

from __future__ import annotations

import dataclasses
import os


def _from_env(name, default):
    """An option whose default is the flag variable ``name``: unset or
    empty gives ``default``, 0/false/no/off is off, anything else on."""
    def read():
        value = os.environ.get(name, "").strip().lower()
        return value not in ("0", "false", "no", "off") if value else default
    return dataclasses.field(default_factory=read)


def resolve_parsafe(mode=None):
    """The Delite parallel-safety mode: an explicit ``mode`` wins, None
    takes REPRO_PARSAFE (unset means off). Unknown values raise."""
    if mode is None:
        mode = os.environ.get("REPRO_PARSAFE", "").strip().lower() or "off"
    if mode not in ("off", "check", "enforce"):
        raise ValueError("unknown parsafe mode %r: expected off|check|enforce"
                         % (mode,))
    return mode


def compile_server_dir():
    """REPRO_COMPILE_SERVER: the cache directory of the shared compile
    server every Lancet with ``compile_workers=0`` joins, or None."""
    return os.environ.get("REPRO_COMPILE_SERVER") or None


@dataclasses.dataclass
class CompileOptions:
    # Inlining policy: 'always' | 'nonrec' | 'never' (paper 3.1). Lancet
    # "will always try to inline non-recursive functions, unless
    # instructed otherwise".
    inline_policy: str = "nonrec"
    max_inline_depth: int = 120

    # Loop handling: natural unrolling happens only under an `unroll`
    # dynamic scope; this caps duplicated loop versions.
    unroll_limit: int = 1024

    # Staging budget: more IR statements than this fail the compile.
    max_stmts: int = 2_000_000

    # Partial-evaluation aggressiveness.
    fold_val_fields: bool = True       # read final fields of statics
    assume_static_arrays: bool = True  # fold reads of pre-existing arrays
    speculate_stable: bool = True      # fold @stable fields + invalidation

    # Demanded-analysis switches (also reachable via Lancet.checkNoAlloc /
    # Lancet.checkNoTaint dynamic scopes).
    check_noalloc: bool = False
    check_taint: bool = False

    # Self-checking: run the IR well-formedness verifier after staging and
    # again after fusion/DCE; run the bytecode verifier on the unit's entry
    # method(s) before staging.
    verify_ir: bool = False
    verify_bytecode: bool = False

    # Speculation-soundness checkers (repro.analysis.validate /
    # repro.analysis.deoptcheck), interleaved into the PassManager:
    # `validate_passes` runs the Alive-style per-pass translation
    # validator (snapshot before each tier-2/trace pass, check the
    # simulation relation after); `verify_deopt` runs the deopt-state
    # verifier at every checkpoint (every guard/side-exit's DeoptMeta
    # against bytecode-level liveness at the target bci). A failed check
    # rejects the compile — the unit recompiles with the offending pass
    # off and a `validate.reject` telemetry event. Default from
    # REPRO_VALIDATE: on in tests/CI, off otherwise (benchmarks).
    validate_passes: bool = _from_env("REPRO_VALIDATE", False)
    verify_deopt: bool = _from_env("REPRO_VALIDATE", False)

    # Delite accelerator-op fusion (paper 3.4); off for ablations.
    delite_fusion: bool = True

    # Delite parallel-safety analysis (repro.analysis.parsafe), gating
    # which ops the smp/gpu backends may run: 'off' trusts every op (the
    # pre-PR-10 behavior); 'enforce' classifies each DeliteOp and demotes
    # anything not ProvenParallel to the seq backend (with a
    # parsafe.fallback event); 'check' additionally arms the dynamic
    # write sanitizer (repro.analysis.raced) on every chunked execution,
    # raising RaceDetected when two chunks' write footprints overlap —
    # the runtime cross-check of the static verdicts. None takes
    # REPRO_PARSAFE (the CI sanitizer leg sets 'check').
    parsafe: str = None

    # Tier-2 optimization passes powered by the static analyses in
    # repro.analysis (effects/escape/ranges). Each flag gates one pass so
    # ablations and the differential fuzzer can isolate them.
    opt_gvn: bool = True            # dominator-scoped CSE + load/call CSE
    opt_licm: bool = True           # loop-invariant code motion
    opt_scalar_replace: bool = True  # sink non-escaping allocations
    opt_range_guards: bool = True   # interval-proven guard/branch pruning

    # Tiered compilation (paper 3.1: makeJIT/makeHOT as library policy).
    # `tier` names the tier this options object compiles at: 1 = quick
    # staged compile (shallow specialization, minimal guards, no analysis
    # passes), 2 = full optimizing compile. The thresholds drive the
    # per-VM TierPolicy: invocation counts for 0->1 and 1->2 promotion,
    # a loop back-edge count for mid-execution OSR tier-up, and the
    # number of deopts a unit may take before being demoted a tier
    # (and finally blacklisted to the interpreter).
    tier: int = 2
    tier1_threshold: int = 2
    tier2_threshold: int = 8
    osr_threshold: int = 100
    deopt_budget: int = 3

    # Route eligible Tier-1 units (static methods, no receiver
    # specialization) to the template baseline compiler derived from the
    # interpreter's handler table (repro.baseline) instead of the cut-
    # down staged compile. Falls back to the staged path automatically
    # on CPythons the bytecode assembler does not target. Default from
    # REPRO_BASELINE (A/B benchmarks set 0).
    baseline: bool = _from_env("REPRO_BASELINE", True)

    # Tier T, the trace-recording tier (repro.pipeline.tracing): enabled
    # explicitly, default from REPRO_TRACE_TIER. A loop back-edge taken
    # `trace_threshold` times flips the interpreter into recording mode;
    # recordings abort past `trace_max_ops` instructions. A guard exit
    # taken `bridge_threshold` times gets a bridge trace stitched on; a
    # trace whose exits total `trace_exit_budget` without a bridge
    # absorbing them is blacklisted back to the interpreter/method ladder.
    trace_tier: bool = _from_env("REPRO_TRACE_TIER", False)
    trace_threshold: int = 30
    trace_max_ops: int = 3000
    bridge_threshold: int = 4
    trace_exit_budget: int = 40

    # Memoize compile_function/compile_method per (method, specialization,
    # options) in Lancet.unit_cache; off forces a fresh compilation.
    unit_cache: bool = True

    # Persistent code cache (warm starts): a directory for on-disk
    # entries (None, the default, keeps compiled code in memory only)
    # and a master switch (the CLI's --no-persist).
    cache_dir: str = None
    persist: bool = True

    # Background compilation: > 0 gives the VM a private CompileServer
    # with that many workers, and tier promotions, OSR and trace
    # installs enqueue instead of compiling inline (the hot path keeps
    # running at the current tier until the result lands).
    # 0 = compile synchronously.
    compile_workers: int = 0

    # Treat compilation warnings as errors.
    warnings_as_errors: bool = False

    def __post_init__(self):
        self.parsafe = resolve_parsafe(self.parsafe)

    def key(self):
        """The field values as a flat tuple, in field order: a hashable
        memo key equal exactly when the options are equal. Every field
        is a scalar, a str or None, so a shallow tuple suffices
        (``dataclasses.astuple`` deep-copies and is ~100x slower)."""
        return tuple([getattr(self, name) for name in _FIELD_NAMES])


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(CompileOptions))
