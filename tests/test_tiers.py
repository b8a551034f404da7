"""Tiered compilation: promotion ladder, OSR tier-up, deopt demotion,
blacklisting, and tier-aware caching (ISSUE 3 tentpole)."""

import dataclasses

import pytest

from repro import CompileOptions, Lancet
from repro.pipeline import TIER0, TIER1, TIER2, tier_options
from repro.pipeline.passes import PassManager, TIER_PASSES

CALC_SRC = '''
    def calc(x, y) {
      var acc = 0;
      var i = 0;
      while (i < x) { acc = acc + y + i; i = i + 1; }
      return acc;
    }
    def hotloop(n) {
      var acc = 0;
      var i = 0;
      while (i < n) { acc = acc + i; i = i + 1; }
      return acc;
    }
    def spec(x) {
      if (Lancet.speculate(x < 100)) { return x * 2; }
      else { return 0 - x; }
    }
'''


def expected_calc(x, y):
    return sum(y + i for i in range(x))


def tiered_jit(**thresholds):
    j = Lancet()
    j.load(CALC_SRC)
    j.telemetry.enable_trace()
    for name, value in thresholds.items():
        setattr(j.options, name, value)
    return j


class TestPromotionLadder:
    def test_0_to_1_to_2_on_invocation_counts(self):
        j = tiered_jit(tier1_threshold=2, tier2_threshold=4)
        tf = j.compile_tiered("Main", "calc")
        assert tf.tier == TIER0

        results = [tf(5, k) for k in range(6)]
        assert results == [expected_calc(5, k) for k in range(6)]
        assert tf.tier == TIER2

        promotes = [e.data for e in j.telemetry.events("tier.promote")]
        assert [(e["from_tier"], e["to_tier"]) for e in promotes] == \
            [(0, 1), (1, 2)]

    def test_promotion_replaces_cache_entry(self):
        j = tiered_jit(tier1_threshold=1, tier2_threshold=3)
        tf = j.compile_tiered("Main", "calc")
        for k in range(5):
            tf(4, k)
            # Never more than one unit-cache entry per tier transition:
            # promotion replaces, it does not accumulate.
            assert len(j.unit_cache) <= 1
        assert tf.tier == TIER2
        assert len(j.unit_cache) == 1

    def test_tier_recorded_on_compiled_unit_and_stats(self):
        j = tiered_jit(tier1_threshold=1, tier2_threshold=3)
        tf = j.compile_tiered("Main", "calc")
        tf(3, 1)
        tf(3, 1)
        assert tf.compiled.tier == TIER1
        assert tf.compiled.report.tier == TIER1
        for _ in range(3):
            tf(3, 1)
        assert tf.compiled.tier == TIER2
        tiers = j.stats()["tiers"]
        assert tiers["compiles_by_tier"] == {1: 1, 2: 1}
        assert tiers["promotions"] == 2
        assert tiers["units"]["Main.calc"]["tier"] == TIER2


class TestDifferential:
    def test_promoted_tier2_matches_direct_tier2(self):
        """A unit compiled Tier 1 then promoted to Tier 2 behaves exactly
        like a direct Tier-2 compile (acceptance criterion)."""
        j = tiered_jit(tier1_threshold=1, tier2_threshold=2)
        tf = j.compile_tiered("Main", "calc")
        promoted = [tf(6, k) for k in range(5)]
        assert tf.tier == TIER2

        direct_jit = Lancet()
        direct_jit.load(CALC_SRC)
        direct = direct_jit.compile_function("Main", "calc")
        assert promoted == [direct(6, k) for k in range(5)]
        # Same optimizing pipeline -> same generated code.
        assert tf.compiled.source == direct.source

    def test_tier1_compiles_and_matches_interpreter(self):
        j = Lancet()
        j.load(CALC_SRC)
        quick = j.compile_function(
            "Main", "calc", options=tier_options(j.options, TIER1))
        for x, y in [(0, 0), (3, 2), (10, 7)]:
            assert quick(x, y) == expected_calc(x, y)


class TestOsrTierUp:
    def test_hot_loop_tiers_up_mid_execution(self):
        j = tiered_jit(tier1_threshold=10**9, tier2_threshold=10**9,
                       osr_threshold=50)
        tf = j.compile_tiered("Main", "hotloop")
        n = 500
        assert tf(n) == sum(range(n))   # OSR fires inside this one call
        assert tf.tier == TIER2         # and promotes the unit for later
        events = [e.data for e in j.telemetry.events("osr.tier_up")]
        assert len(events) == 1
        assert events[0]["unit"] == "Main.hotloop"
        assert events[0]["backedges"] == 50
        assert j.stats()["tiers"]["osr_tier_ups"] == 1

    def test_cold_loop_stays_interpreted(self):
        j = tiered_jit(tier1_threshold=10**9, tier2_threshold=10**9,
                       osr_threshold=10**9)
        tf = j.compile_tiered("Main", "hotloop")
        assert tf(200) == sum(range(200))
        assert tf.tier == TIER0
        assert not j.telemetry.events("osr.tier_up")


class TestDemotion:
    def test_deopt_budget_demotes_then_blacklists(self):
        j = tiered_jit(tier1_threshold=1, tier2_threshold=2,
                       deopt_budget=1)
        tf = j.compile_tiered("Main", "spec")
        for _ in range(4):
            tf(5)
        assert tf.tier == TIER2

        # Every call with x >= 100 fails the speculation guard.
        assert tf(200) == -200
        assert tf(300) == -300          # budget exhausted: demote 2 -> 1
        assert tf.tier == TIER1
        assert tf(400) == -400
        assert tf(500) == -500          # exhausted again: blacklist to 0
        assert tf.tier == TIER0
        assert tf.blacklisted
        assert len(j.unit_cache) == 0   # blacklisting drops the entry

        demotes = [e.data for e in j.telemetry.events("tier.demote")]
        assert [(e["from_tier"], e["to_tier"]) for e in demotes] == \
            [(2, 1), (1, 0)]
        assert demotes[-1]["blacklisted"]

        # Blacklisted units keep working, interpreted, and never promote.
        assert tf(5) == 10
        assert tf(600) == -600
        assert tf.tier == TIER0
        stats = j.stats()["tiers"]
        assert stats["demotions"] == 2
        assert stats["blacklists"] == 1

    def test_deopts_within_budget_keep_tier(self):
        j = tiered_jit(tier1_threshold=1, tier2_threshold=2,
                       deopt_budget=5)
        tf = j.compile_tiered("Main", "spec")
        for _ in range(3):
            tf(5)
        assert tf.tier == TIER2
        assert tf(150) == -150
        assert tf(250) == -250
        assert tf.tier == TIER2
        assert not j.telemetry.events("tier.demote")


class TestCacheAcrossTiers:
    def test_tier_is_part_of_the_unit_key(self):
        j = Lancet()
        j.load(CALC_SRC)
        quick = j.compile_function(
            "Main", "calc", options=tier_options(j.options, TIER1))
        full = j.compile_function("Main", "calc")
        assert quick is not full
        assert len(j.unit_cache) == 2
        # Same tier -> cache hit.
        assert j.compile_function(
            "Main", "calc", options=tier_options(j.options, TIER1)) is quick

    def test_invalidation_crosses_tiers(self):
        """Flushing the unit cache invalidates entries at every tier;
        each recompiles at its own tier on the next call."""
        j = Lancet()
        j.load(CALC_SRC)
        quick = j.compile_function(
            "Main", "calc", options=tier_options(j.options, TIER1))
        full = j.compile_function("Main", "calc")
        j.unit_cache.invalidate_all("test flush")
        assert not quick.valid and not full.valid
        assert quick(3, 1) == expected_calc(3, 1)
        assert full(3, 1) == expected_calc(3, 1)
        assert quick.compile_count == 2 and full.compile_count == 2
        # The recompiles kept their tiers (options flow through the
        # rebuild closure).
        assert quick.tier == TIER1 and full.tier == TIER2


class TestTieredMakeHot:
    def test_make_hot_tiered_promotes_in_place(self):
        from repro.jit.cache import make_hot
        j = Lancet()
        j.load(CALC_SRC)
        j.telemetry.enable_trace()
        j.options.tier2_threshold = 3
        calc_hot = make_hot(j, "Main", "calc", threshold=1, tiered=True)
        assert calc_hot(5, 0) == expected_calc(5, 0)   # interpreted
        assert len(calc_hot.cache) == 0
        assert calc_hot(5, 1) == expected_calc(5, 1)   # tier-1 compile
        assert calc_hot.variant_tier[5] == 1
        assert len(calc_hot.cache) == 1
        for k in range(2, 6):
            assert calc_hot(5, k) == expected_calc(5, k)
        assert calc_hot.variant_tier[5] == 2           # promoted in place
        assert len(calc_hot.cache) == 1
        promotes = [e.data for e in j.telemetry.events("tier.promote")]
        assert [(e["from_tier"], e["to_tier"]) for e in promotes] == \
            [(1, 2)]


class TestPassManagerTiers:
    def test_tier1_pass_list_is_minimal(self):
        pm = PassManager(CompileOptions(tier=1))
        assert pm.passes_for(1) == ("fuse",)

    def test_tier2_pass_list_is_full(self):
        pm = PassManager(CompileOptions(parsafe="off"))
        names = pm.passes_for(2)
        # verify.* needs verify_ir; parsafe needs the gate on (or a
        # collect-mode diagnostics sink).
        assert names == tuple(n for n in TIER_PASSES[2]
                              if not n.startswith("verify.")
                              and n != "parsafe")
        assert "dce" in names and "taint" in names and "alloc" in names

    def test_parsafe_pass_gated_on_option(self):
        assert "parsafe" in PassManager(
            CompileOptions(parsafe="check")).passes_for(2)
        assert "parsafe" not in PassManager(
            CompileOptions(parsafe="off")).passes_for(2)

    def test_demanded_checks_upgrade_tier1(self):
        pm = PassManager(CompileOptions(tier=1, check_noalloc=True))
        assert "alloc" in pm.passes_for(1)

    def test_verify_passes_gated_on_verify_ir(self):
        pm = PassManager(CompileOptions(verify_ir=True))
        assert "verify.staged" in pm.passes_for(2)
        assert "verify.optimized" in pm.passes_for(2)

    def test_pass_stats_recorded_per_unit(self):
        # Pinned off: REPRO_PARSAFE=check would add its own pass.
        j = Lancet(options=CompileOptions(parsafe="off"))
        j.load(CALC_SRC)
        compiled = j.compile_function("Main", "calc")
        stats = compiled.report.pass_stats
        passes = [s for s in stats if not s["pass"].startswith("validate.")]
        assert [s["pass"] for s in passes] == \
            ["fuse", "gvn", "licm", "sink", "range", "dce", "guards",
             "taint", "alloc"]
        for s in passes:
            assert s["blocks_after"] <= s["blocks_before"]
            assert s["seconds"] >= 0
        # REPRO_VALIDATE=1 (the test-suite default) interleaves a
        # speculation-soundness checkpoint after each validated pass.
        checks = [s for s in stats if s["pass"].startswith("validate.")]
        assert checks, "expected interleaved validator checkpoints"
        for s in checks:
            assert s["findings"] == 0 and s["deopt_findings"] == 0


class TestTierDirectives:
    SRC = '''
        def make1() {
          return Lancet.tier1(fun() {
            return Lancet.compile(fun(x) => x + x);
          });
        }
        def make2() {
          return Lancet.tier2(fun() {
            return Lancet.compile(fun(x) => x + x);
          });
        }
    '''

    def test_tier1_scope_pins_nested_compile(self):
        """The tier directive is a staging-time scope: when the outer
        unit is compiled, nested `Lancet.compile` calls inherit it."""
        j = Lancet()
        j.load(self.SRC)
        f1 = j.compile_function("Main", "make1")()
        assert f1(21) == 42
        assert f1.tier == TIER1
        f2 = j.compile_function("Main", "make2")()
        assert f2(21) == 42
        assert f2.tier == TIER2


class TestTierOptions:
    def test_tier1_disables_heavy_machinery(self):
        base = CompileOptions()
        quick = tier_options(base, TIER1)
        assert quick.tier == 1
        assert quick.inline_policy == "never"
        assert not quick.speculate_stable
        assert not quick.delite_fusion
        assert not quick.verify_ir and not quick.verify_bytecode

    def test_tier0_has_no_compiled_options(self):
        with pytest.raises(ValueError):
            tier_options(CompileOptions(), TIER0)

    def test_derived_options_are_memoized(self):
        """Hot-path regression (ISSUE 8): every tiered call derives its
        tier's options, so the derivation must be cached — equal base
        options at the same tier return the *same* object, not a fresh
        dataclasses.replace per call."""
        base = CompileOptions()
        assert tier_options(base, TIER1) is tier_options(base, TIER1)
        assert tier_options(base, TIER2) is tier_options(base, TIER2)
        # Value-equal bases share the cache entry (the key is the
        # option values, not the instance).
        twin = CompileOptions()
        assert tier_options(twin, TIER1) is tier_options(base, TIER1)
        # Different bases miss: no cross-contamination.
        other = CompileOptions(opt_gvn=False)
        assert tier_options(other, TIER1) is not tier_options(base, TIER1)
        assert tier_options(base, TIER1) is not tier_options(base, TIER2)


def _changed(value):
    """A different value of the same field type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    assert value is None
    return "x"


class TestOptionsKey:
    """Unit-cache and tier_options memo keys are CompileOptions.key(): a
    shallow tuple that must still tell every field apart."""

    def test_every_field_changes_the_keys(self):
        j = Lancet()
        j.load(CALC_SRC)
        method = j.vm.linker.resolve_static("Main", "calc")
        base = CompileOptions()
        unit_key = j._unit_key(method, None, base)
        derived = tier_options(base, TIER2)
        for field in dataclasses.fields(CompileOptions):
            # parsafe accepts only its modes; every other field any value.
            if field.name == "parsafe":
                value = "check" if base.parsafe == "off" else "off"
            else:
                value = _changed(getattr(base, field.name))
            other = dataclasses.replace(base, **{field.name: value})
            assert other.key() != base.key(), field.name
            assert j._unit_key(method, None, other) != unit_key, field.name
            assert tier_options(other, TIER2) is not derived, field.name

    def test_equal_options_give_equal_keys(self):
        j = Lancet()
        j.load(CALC_SRC)
        method = j.vm.linker.resolve_static("Main", "calc")
        base = CompileOptions(opt_gvn=False, cache_dir="d")
        twin = CompileOptions(opt_gvn=False, cache_dir="d")
        assert twin.key() == base.key()
        assert hash(twin.key()) == hash(base.key())
        assert (j._unit_key(method, None, twin)
                == j._unit_key(method, None, base))
        assert tier_options(base, TIER2) is tier_options(
            dataclasses.replace(base), TIER2)
