"""Profile-driven tier promotion (paper 3.1: ``makeJIT``/``makeHOT``).

Tier ladder:

* **Tier 0** — the interpreter, with method-call and loop-back-edge
  counters from :mod:`repro.interp.profiler`.
* **Tier 1** — a quick staged compile: shallow specialization (no
  inlining, no stable-field speculation, no Delite fusion) and a minimal
  PassManager list, so time-to-first-compiled-call stays small.
* **Tier 2** — the full optimizing compile: abstract-interpretation
  fixpoint plus the whole analysis pass list (current single-tier
  behavior).

Promotion is explicit library policy, not a VM black box: a
:class:`TieredFunction` promotes 0→1→2 on invocation counts (thresholds
live in :class:`~repro.compiler.options.CompileOptions`), hot loop
back-edges tier up *mid-execution* by compiling the current frame chain
as an OSR continuation (the same snapshot machinery
:mod:`repro.compiler.deopt` uses), and deopt storms demote one tier at a
time — each unit has a failure budget; exhausting it at Tier 1
blacklists the unit back to the interpreter.

Unit-cache discipline: cache keys carry the tier (it is part of the
options tuple), and promotion *replaces* the unit's entry rather than
accumulating one per tier.
"""

from __future__ import annotations

import dataclasses

TIER0, TIER1, TIER2 = 0, 1, 2
TIER_T = 3     # the trace tier (see repro.pipeline.tracing)


#: derived-options memo: (base.key(), tier) -> CompileOptions. The
#: promotion path calls tier_options on every tier check; rebuilding a
#: dataclass (two dataclasses.replace-sized allocations plus field
#: copies) per call was measurable there. Derived objects are shared —
#: callers must treat them as frozen (use dataclasses.replace to vary).
_TIER_OPTIONS_CACHE = {}


def tier_options(base, tier):
    """Derive the CompileOptions for ``tier`` from ``base``.

    Tier 1 turns off everything that makes compilation slow: inlining
    (the staged IR stays one method deep), final-field/static-array
    folding beyond what specialization gives for free is kept (it is
    cheap and macros rely on static receivers), stable-field speculation
    (fewer guards), Delite fusion, and the self-checking verifiers. The
    PassManager additionally selects its minimal Tier-1 pass list from
    ``options.tier``. (With ``base.baseline`` on, eligible Tier-1 units
    skip the staged pipeline entirely — see :mod:`repro.baseline`.)

    Results are memoized per (base contents, tier) and shared.
    """
    if tier not in (TIER1, TIER2, TIER_T):
        raise ValueError("no compiled tier %r (tier 0 is the interpreter)"
                         % (tier,))
    key = (base.key(), tier)
    derived = _TIER_OPTIONS_CACHE.get(key)
    if derived is None:
        if tier == TIER2:
            derived = dataclasses.replace(base, tier=TIER2)
        elif tier == TIER_T:
            # Tier T compiles recorded traces, staged along the recorded
            # path; the PassManager maps unknown tiers to the full Tier-2
            # pass list, so a trace gets the whole optimizing pipeline
            # (GVN/LICM/range/guards) for free. A trace bakes in no
            # @stable value: it has no invalidation to recompile it.
            derived = dataclasses.replace(base, tier=TIER_T,
                                          speculate_stable=False)
        else:
            derived = dataclasses.replace(
                base, tier=TIER1, inline_policy="never",
                speculate_stable=False, delite_fusion=False,
                verify_ir=False, verify_bytecode=False)
        _TIER_OPTIONS_CACHE[key] = derived
    return derived


class TierPolicy:
    """Per-VM promotion policy: reads thresholds from CompileOptions."""

    def __init__(self, options):
        self.options = options

    @property
    def tier1_threshold(self):
        return self.options.tier1_threshold

    @property
    def tier2_threshold(self):
        return self.options.tier2_threshold

    @property
    def osr_threshold(self):
        return self.options.osr_threshold

    @property
    def deopt_budget(self):
        return self.options.deopt_budget

    def options_for(self, tier, base=None):
        return tier_options(base if base is not None else self.options,
                            tier)

    def next_tier(self, tier, calls):
        """The tier ``calls`` invocations warrant, given current ``tier``
        (never demotes; demotion is deopt-driven)."""
        if tier < TIER2 and calls >= self.tier2_threshold:
            return TIER2
        if tier < TIER1 and calls >= self.tier1_threshold:
            return TIER1
        return tier


class TieredFunction:
    """A static guest method executed through the tier ladder.

    Callable like the method itself. Starts in Tier 0 (interpreted,
    counted); promotes through Tier 1 to Tier 2 as invocation counts
    cross the policy thresholds; demotes one tier per exhausted deopt
    budget, down to a Tier-0 blacklist.
    """

    def __init__(self, jit, class_name, method_name, policy=None):
        self.jit = jit
        self.class_name = class_name
        self.method_name = method_name
        self.policy = policy or TierPolicy(jit.options)
        self.method = jit.vm.linker.resolve_static(class_name, method_name)
        self.qualified_name = self.method.qualified_name
        self.tier = TIER0
        self.compiled = None
        self.calls = 0
        self.failures = 0          # deopts charged against current tier
        self.max_tier = TIER2      # lowered by demotion: no ping-pong
        self.blacklisted = False
        self._cache_key = None     # unit-cache key of the current entry
        # Asynchronous promotion state: the tier a queued background
        # compile targets, and a generation counter that demotion bumps
        # so an in-flight result landing late is ignored, not installed.
        self._pending_tier = None
        self._promotion_gen = 0
        jit.tiers.register(self)

    # -- counters --------------------------------------------------------------

    def _observed_calls(self):
        """Calls seen so far: the wrapper's own count plus interpreter
        profiler invocations (nested guest calls promote too)."""
        return max(self.calls,
                   self.jit.vm.profiler.invocation_count(
                       self.qualified_name))

    # -- tier transitions ------------------------------------------------------

    def _options_for(self, tier):
        """Per-unit tier options. A demoted unit (``max_tier`` capped at
        Tier 1) compiles Tier 1 through the staged pipeline even when the
        baseline is on: baseline code carries no speculation guards, so it
        could never drain the deopt budget again and the demotion ladder
        would stall at Tier 1 instead of reaching the blacklist."""
        opts = self.policy.options_for(tier, base=self.jit.options)
        if tier == TIER1 and self.max_tier == TIER1 and opts.baseline:
            opts = dataclasses.replace(opts, baseline=False)
        return opts

    def _build(self, tier):
        """Compile this unit at ``tier`` without installing it (the
        background half of an asynchronous promotion)."""
        jit = self.jit
        opts = self._options_for(tier)
        compiled = jit.compile_function(self.class_name, self.method_name,
                                        options=opts)
        compiled.tiered_owner = self
        return compiled

    def _adopt(self, tier, compiled):
        """Make ``compiled`` this unit's active code, replacing the old
        tier's unit-cache entry instead of accumulating one per tier."""
        jit = self.jit
        opts = self._options_for(tier)
        old_key = self._cache_key
        new_key = jit._unit_key(self.method, None, opts)
        if old_key is not None and old_key != new_key:
            jit.unit_cache.remove(old_key)
        self._cache_key = new_key
        self.compiled = compiled
        return compiled

    def _compile_at(self, tier):
        return self._adopt(tier, self._build(tier))

    def _promote(self, to_tier):
        from_tier = self.tier
        self._compile_at(to_tier)
        self._install(from_tier, to_tier, background=False)

    def _install(self, from_tier, to_tier, background):
        self.tier = to_tier
        self.failures = 0
        self._pending_tier = None
        tel = self.jit.telemetry
        tel.inc("tier.promotions")
        tel.record("tier.promote", unit=self.qualified_name,
                   from_tier=from_tier, to_tier=to_tier,
                   calls=self._observed_calls(), background=background)

    def _request_promotion(self, to_tier, server, priority=None):
        """Enqueue the promotion compile on the compile server; execution
        keeps running at the current tier until the result lands. The
        generation check makes a demotion (or blacklist) that happened
        mid-compile win over the stale result. ``priority`` defaults by
        target tier; OSR passes ``PRIORITY_OSR`` (a loop is hot *now*)."""
        if self._pending_tier is not None and self._pending_tier >= to_tier:
            return
        from repro.server import PRIORITY_TIER1, PRIORITY_TIER2
        if priority is None:
            priority = (PRIORITY_TIER2 if to_tier >= TIER2
                        else PRIORITY_TIER1)
        self._pending_tier = to_tier
        gen = self._promotion_gen
        from_tier = self.tier

        def install(compiled):
            if (self._promotion_gen != gen or self.blacklisted
                    or to_tier > self.max_tier):
                # Demoted/blacklisted while we compiled: the result is
                # stale — drop it (and its unit-cache entry), keep the
                # interpreter/current tier.
                opts = self._options_for(to_tier)
                self.jit.unit_cache.remove(
                    self.jit._unit_key(self.method, None, opts))
                self.jit.telemetry.inc("tier.promotions_discarded")
                self.jit.telemetry.record(
                    "tier.promote_discarded", unit=self.qualified_name,
                    to_tier=to_tier)
                return
            self._adopt(to_tier, compiled)
            self._install(from_tier, to_tier, background=True)

        def clear(error):
            if self._pending_tier == to_tier:
                self._pending_tier = None

        req = server.submit(
            ("promote", self.qualified_name, to_tier),
            lambda: self._build(to_tier),
            priority=priority, tenant=self.jit.compile_tenant,
            on_complete=install, on_error=clear)
        if req.rejected:
            # Saturated or blacklisted key: degrade gracefully, stay
            # at the current tier and try again on a later call.
            self._pending_tier = None

    def demote(self, reason="deopt budget exhausted"):
        """Drop one tier; from Tier 1 this blacklists to the interpreter.
        Demotion caps ``max_tier`` so stale invocation counts cannot
        immediately re-promote the unit (no tier ping-pong)."""
        from_tier = self.tier
        tel = self.jit.telemetry
        # Any in-flight background promotion is now stale: ignore its
        # result when it lands (and cancel it if still queued).
        self._promotion_gen += 1
        self._pending_tier = None
        server = self.jit.compile_server
        if server is not None:
            for target in (TIER1, TIER2):
                server.cancel(("promote", self.qualified_name, target),
                              tenant=self.jit.compile_tenant)
        if from_tier >= TIER2:
            self.tier = TIER1
            self.max_tier = TIER1
            self._compile_at(TIER1)
            self.failures = 0
        else:
            self.tier = TIER0
            self.blacklisted = True
            self.compiled = None
            if self._cache_key is not None:
                self.jit.unit_cache.remove(self._cache_key)
                self._cache_key = None
            tel.inc("tier.blacklists")
        tel.inc("tier.demotions")
        tel.record("tier.demote", unit=self.qualified_name,
                   from_tier=from_tier, to_tier=self.tier,
                   blacklisted=self.blacklisted, reason=reason)

    def on_deopt(self, compiled):
        """A runtime guard failed in this unit's compiled code."""
        self.failures += 1
        if self.tier > TIER0 and self.failures > self.policy.deopt_budget:
            self.demote()

    # -- execution -------------------------------------------------------------

    def __call__(self, *args):
        self.calls += 1
        if not self.blacklisted:
            target = min(self.policy.next_tier(self.tier,
                                               self._observed_calls()),
                         self.max_tier)
            if target > self.tier:
                server = self.jit.async_compiler
                if server is not None:
                    # Asynchronous promotion: enqueue and keep executing
                    # at the current tier; the compile never blocks the
                    # hot path.
                    self._request_promotion(target, server)
                else:
                    self._promote(target)
        compiled = self.compiled
        if compiled is not None:
            return compiled(*args)
        return self.jit.vm.call(self.class_name, self.method_name,
                                list(args))

    def __repr__(self):
        state = "blacklisted" if self.blacklisted else "tier %d" % self.tier
        return "<TieredFunction %s (%s, %d calls)>" % (
            self.qualified_name, state, self.calls)


class TierController:
    """Per-Lancet tier machinery: the unit registry, deopt routing, and
    mid-execution OSR tier-up off interpreter loop back-edges."""

    def __init__(self, jit):
        self.jit = jit
        self.policy = TierPolicy(jit.options)
        self._units = {}           # qualified name -> TieredFunction
        self._osr_blacklist = set()  # (qualified name, bci)
        self._in_osr = False
        self.traces = None         # TraceManager once Tier T is enabled

    # -- registry --------------------------------------------------------------

    def register(self, tiered):
        self._units[tiered.qualified_name] = tiered
        # Tier 0 is "interpreter with counters": arm the profiler so
        # invocation and back-edge counts accumulate.
        self.jit.vm.profile = True

    def tiered_function(self, class_name, method_name, policy=None):
        return TieredFunction(self.jit, class_name, method_name,
                              policy=policy)

    def unit(self, qualified_name):
        return self._units.get(qualified_name)

    @property
    def armed(self):
        return bool(self._units) or self.traces is not None

    # -- deopt routing ---------------------------------------------------------

    def on_deopt(self, compiled):
        owner = getattr(compiled, "tiered_owner", None)
        if owner is not None:
            owner.on_deopt(compiled)

    # -- OSR tier-up -----------------------------------------------------------

    def on_backedge(self, vm, frame):
        """Called by the interpreter on a counted loop back-edge. Returns
        a zero-argument callable to finish the current ``run_frames``
        execution in compiled code, or ``None`` to keep interpreting."""
        traces = self.traces
        if traces is not None:
            cont = traces.on_backedge(self, vm, frame)
            if cont is not None:
                return cont
            if traces.recording is not None:
                # Method OSR mid-recording would swap the frames the
                # recorder is following out from under it: hold off.
                return None
        owner = self._units.get(frame.method.qualified_name)
        if (owner is None or owner.blacklisted
                or owner.max_tier < TIER2 or self._in_osr):
            return None
        site = (frame.method.qualified_name, frame.bci)
        if site in self._osr_blacklist:
            return None
        count = vm.profiler.backedge_count(*site)
        if count < self.policy.osr_threshold:
            return None

        server = self.jit.async_compiler
        if server is not None:
            # Asynchronous mode: never stall the loop for a compile.
            # Enqueue a top-priority promotion of the owning unit; this
            # iteration keeps interpreting and the *next call* (or a
            # later back-edge, once the compile lands) runs compiled.
            if owner.tier < TIER2:
                from repro.server import PRIORITY_OSR
                owner._request_promotion(TIER2, server,
                                         priority=PRIORITY_OSR)
            return None

        from repro.errors import CompilationError

        frames = []
        f = frame
        while f is not None:
            frames.append(f)
            f = f.parent
        frames.reverse()
        self._in_osr = True
        try:
            try:
                compiled = self.jit._compile_unit(
                    frame.method, receiver=None,
                    options=self.policy.options_for(TIER2,
                                                    base=self.jit.options),
                    name="osr-tier@%s:%d" % site, entry_frames=frames)
            except CompilationError:
                self._osr_blacklist.add(site)
                return None
            tel = self.jit.telemetry
            tel.inc("tier.osr_up")
            tel.record("osr.tier_up", unit=owner.qualified_name,
                       method=site[0], bci=site[1], backedges=count)
            # Future calls should enter compiled code directly: promote
            # the owning unit to the top tier (the continuation finishes
            # the in-flight execution either way).
            if owner.tier < TIER2:
                owner._promote(TIER2)
        finally:
            self._in_osr = False
        return compiled

    # -- OSR from baseline code ------------------------------------------------

    def on_baseline_backedge(self, vm, method, target):
        """The ``_be`` profiling hook compiled into baseline loop
        back-edges (the counterpart of :meth:`on_backedge` for code that
        is no longer interpreting). Returns True when the caller should
        take its OSR exit — i.e. a synchronous tier-2 compile is both
        warranted and possible right now."""
        qualified = method.qualified_name
        owner = self._units.get(qualified)
        if (owner is None or owner.blacklisted
                or owner.max_tier < TIER2 or self._in_osr):
            return False
        site = (qualified, target)
        if site in self._osr_blacklist:
            return False
        if vm.profiler.backedge_count(*site) < self.policy.osr_threshold:
            return False
        server = self.jit.async_compiler
        if server is not None:
            # Asynchronous mode: never stall the loop for a compile —
            # enqueue a top-priority promotion and keep running baseline.
            if owner.tier < TIER2:
                from repro.server import PRIORITY_OSR
                owner._request_promotion(TIER2, server,
                                         priority=PRIORITY_OSR)
            return False
        return True

    def osr_from_baseline(self, vm, method, target, local_values):
        """Tier up out of *running* baseline code: rebuild the
        interpreter frame the baseline's locals correspond to (guest
        locals map 1:1 onto host fast locals; the hook only fires at
        stack depth 0), compile it as an OSR continuation, and finish
        the execution there."""
        from repro.errors import CompilationError
        from repro.interp.frame import InterpreterFrame

        frame = InterpreterFrame(method)
        frame.bci = target
        for i, value in enumerate(local_values):
            frame.set_local(i, value)
        site = (method.qualified_name, target)
        owner = self._units.get(site[0])
        self._in_osr = True
        try:
            try:
                compiled = self.jit._compile_unit(
                    method, receiver=None,
                    options=self.policy.options_for(TIER2,
                                                    base=self.jit.options),
                    name="osr-tier@%s:%d" % site, entry_frames=[frame])
            except CompilationError:
                # Uncompilable site: blacklist it and finish this
                # execution in the interpreter (correct either way).
                self._osr_blacklist.add(site)
                return vm.run_frames(frame)
            tel = self.jit.telemetry
            tel.inc("tier.osr_up")
            tel.record("osr.tier_up", unit=site[0], method=site[0],
                       bci=target,
                       backedges=vm.profiler.backedge_count(*site),
                       from_baseline=True)
            if owner is not None and owner.tier < TIER2:
                owner._promote(TIER2)
        finally:
            self._in_osr = False
        return compiled()

    # -- stats -----------------------------------------------------------------

    def snapshot(self):
        """Tier state of every registered unit (for ``Lancet.stats()``)."""
        return {
            name: {"tier": u.tier, "calls": u.calls,
                   "failures": u.failures, "blacklisted": u.blacklisted,
                   "pending_tier": u._pending_tier}
            for name, u in self._units.items()
        }
