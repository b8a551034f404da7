"""Invocation profiling.

The paper argues that profile-driven black boxes are unpredictable, but it
still *uses* profiling as an explicit, program-controlled mechanism
(``calcHOT``/``makeHOT``, section 3.1). This module provides the counters:
per-method invocation counts, native-call counts, and per-call-site type
feedback (receiver classes seen), queryable by user code.
"""

from __future__ import annotations

from collections import Counter, defaultdict


class Profiler:
    """Counts events during interpretation (enabled via ``vm.profile``)."""

    def __init__(self):
        self.invocations = Counter()        # qualified method name -> count
        self.native_calls = Counter()       # "Cls.name" -> count
        self.receiver_types = defaultdict(Counter)  # site -> class name -> count
        self.backedges = Counter()          # (qualified name, target bci) -> count
        self.telemetry = None               # mirrored into Metrics when set

    def count_invoke(self, method):
        self.invocations[method.qualified_name] += 1
        if self.telemetry is not None:
            self.telemetry.inc("profile.invocations")

    def count_backedge(self, method, target_bci):
        """A loop back-edge (jump to ``target_bci``) was taken."""
        self.backedges[(method.qualified_name, target_bci)] += 1

    def count_native(self, class_name, name):
        self.native_calls["%s.%s" % (class_name, name)] += 1
        if self.telemetry is not None:
            self.telemetry.inc("profile.native_calls")

    def count_receiver(self, site, class_name):
        self.receiver_types[site][class_name] += 1

    def invocation_count(self, qualified_name):
        return self.invocations[qualified_name]

    def backedge_count(self, qualified_name, target_bci):
        return self.backedges[(qualified_name, target_bci)]

    def hot_methods(self, threshold):
        """Methods invoked at least ``threshold`` times."""
        return [name for name, n in self.invocations.items() if n >= threshold]

    def polymorphic_in(self, qualified_name, min_classes=2):
        """Whether any call site inside ``qualified_name`` has seen at
        least ``min_classes`` distinct receiver classes (the trace tier
        targets such methods; the method tier residualizes their calls)."""
        prefix = qualified_name + "@"
        return any(site.startswith(prefix) and len(ctr) >= min_classes
                   for site, ctr in self.receiver_types.items())

    def monomorphic_sites(self):
        """Call sites that only ever saw a single receiver class."""
        return [site for site, ctr in self.receiver_types.items()
                if len(ctr) == 1]

    def reset(self):
        self.invocations.clear()
        self.native_calls.clear()
        self.receiver_types.clear()
        self.backedges.clear()
