"""Code caching and on-demand compilation (paper 3.1).

The paper's point: instead of relying on VM-internal black-box caches,
programs implement their own policies in a few lines::

    val cache = new WeakHashMap[Int, Int=>Int]
    def calcJIT(x, y) = cache.getOrElseUpdate(x, compile(z => calc(x, z)))(y)

Here we provide the generalized combinators: :func:`make_jit` specializes
a two-argument guest function on its first argument with a
:class:`CodeCache` (pluggable eviction), and :func:`make_hot` adds
profile-driven compilation ("only after a certain value becomes hot").
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.bytecode.builder import MethodBuilder
from repro.bytecode.classfile import ClassFile
from repro.errors import GuestTypeError
from repro.runtime.objects import new_instance


class CodeCache:
    """A thread-safe LRU code cache with a pluggable eviction hook.

    "We could easily extend our cache with a custom eviction policy" — so
    the policy is a constructor argument: ``on_evict(key, compiled)``.

    Background compile workers mutate the cache concurrently with the
    hot path, so every mutation happens under a lock, and two extra
    mechanisms keep asynchronous completion honest:

    * :meth:`get_or_else_update` is *single-flight*: when several threads
      miss the same key at once, one compiles and the rest wait for its
      result instead of compiling duplicates.
    * each key has a *generation*, bumped whenever the key is evicted,
      removed, or flushed. A background compile captures
      ``generation(key)`` when it starts and lands its result with
      :meth:`put_if`; a stale result (the key was evicted or the cache
      flushed mid-compile) is discarded instead of being re-inserted.
    """

    def __init__(self, capacity=None, on_evict=None, telemetry=None,
                 name="cache"):
        self.capacity = capacity
        self.on_evict = on_evict
        self.telemetry = telemetry
        self.name = name
        self._entries = OrderedDict()
        self._lock = threading.RLock()
        self._gen = {}              # key -> generation (only ever-bumped keys)
        self._pending = {}          # key -> (Event, leader thread ident)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_discards = 0

    _EVENT_KIND = {"hits": "cache.hit", "misses": "cache.miss",
                   "evictions": "cache.evict",
                   "stale_discards": "cache.stale_discard"}

    def _count(self, what, **data):
        tel = self.telemetry
        if tel is not None:
            tel.inc("cache.%s" % what)
            tel.inc("cache.%s.%s" % (self.name, what))
            tel.record(self._EVENT_KIND[what], cache=self.name, **data)

    # -- generations -----------------------------------------------------------

    def generation(self, key):
        """The key's current generation; capture before a background
        compile and pass to :meth:`put_if` when landing the result."""
        with self._lock:
            return self._gen.get(key, 0)

    def _bump(self, key):
        self._gen[key] = self._gen.get(key, 0) + 1

    # -- probes ----------------------------------------------------------------

    def peek(self, key):
        """Read without counting a hit/miss or refreshing LRU order."""
        with self._lock:
            return self._entries.get(key)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits", key=repr(key), size=len(self._entries))
            else:
                self.misses += 1
                self._count("misses", key=repr(key),
                            size=len(self._entries))
            return entry

    # -- mutation --------------------------------------------------------------

    def _put_locked(self, key, compiled):
        """Insert under the lock; returns evicted (key, value) pairs so
        ``on_evict`` callbacks run outside the lock (they may re-enter)."""
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        evicted = []
        while (self.capacity is not None
               and len(self._entries) > self.capacity):
            old_key, old = self._entries.popitem(last=False)
            self._bump(old_key)
            self.evictions += 1
            self._count("evictions", key=repr(old_key),
                        size=len(self._entries))
            evicted.append((old_key, old))
        return evicted

    def _run_evictions(self, evicted):
        if self.on_evict is not None:
            for old_key, old in evicted:
                self.on_evict(old_key, old)

    def put(self, key, compiled):
        with self._lock:
            evicted = self._put_locked(key, compiled)
        self._run_evictions(evicted)
        return compiled

    def put_if(self, key, compiled, generation):
        """Insert only if the key's generation still matches — the landing
        half of a background compile. Returns the inserted value, or
        ``None`` when the result went stale (key evicted/removed/flushed
        since ``generation`` was captured) and was discarded."""
        with self._lock:
            if self._gen.get(key, 0) != generation:
                self.stale_discards += 1
                self._count("stale_discards", key=repr(key))
                return None
            evicted = self._put_locked(key, compiled)
        self._run_evictions(evicted)
        return compiled

    def get_or_else_update(self, key, compile_fn):
        """Single-flight memoization: concurrent misses for one key run
        ``compile_fn`` exactly once; the other threads block on the
        leader's result. A failing leader propagates its exception and
        releases the waiters to retry."""
        me = threading.get_ident()
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._count("hits", key=repr(key),
                                size=len(self._entries))
                    return entry
                pending = self._pending.get(key)
                if pending is None:
                    event = threading.Event()
                    self._pending[key] = (event, me)
                    leader = True
                    gen = self._gen.get(key, 0)
                    self.misses += 1
                    self._count("misses", key=repr(key),
                                size=len(self._entries))
                elif pending[1] == me:
                    # Re-entrant compile from the leader thread itself
                    # (e.g. a recompile inside compile_fn): run inline
                    # rather than deadlocking on our own event.
                    leader = True
                    event = None
                    gen = self._gen.get(key, 0)
                else:
                    leader = False
                    event = pending[0]
            if not leader:
                event.wait()
                continue        # leader finished (or failed): re-probe
            try:
                value = compile_fn()
            finally:
                if event is not None:
                    with self._lock:
                        self._pending.pop(key, None)
                    event.set()
            # Land through the generation check: a flush/remove racing
            # this compile means the result must not be cached (it is
            # still returned — correct for this call, wrong to keep).
            self.put_if(key, value, gen)
            return value

    def remove(self, key):
        """Drop one entry without invalidating it (tier transitions
        *replace* a unit's entry rather than accumulating one per tier).
        Always bumps the key's generation — even when the key is absent,
        because that is exactly the background-compile window (the miss
        is why a compile is in flight) and the in-flight result must not
        re-insert what this call is dropping."""
        with self._lock:
            entry = self._entries.pop(key, None)
            self._bump(key)
            return entry

    def invalidate_all(self, reason="cache flush"):
        with self._lock:
            victims = list(self._entries.values())
            n = len(victims)
            # Bump in-flight (pending) keys too: a compile racing the
            # flush must not land a pre-flush result afterwards.
            for key in set(self._entries) | set(self._pending):
                self._bump(key)
            self._entries.clear()
        for compiled in victims:
            compiled.invalidate(reason)
        tel = self.telemetry
        if tel is not None:
            tel.inc("cache.flushes")
            tel.record("cache.flush", cache=self.name, entries=n,
                       reason=reason)

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries


def _partial_applier_class(jit, class_name, method_name):
    """Synthesize ``class C { val x; def apply(z) { return Cls.m(this.x, z); } }``
    — the guest closure ``z => f(x, z)`` built from the host side."""
    name = jit.vm.linker.synth_class_name(
        "JitCache$%s$%s$" % (class_name, method_name))
    cf = ClassFile(name, is_closure=True)
    cf.add_field("x", is_val=True)
    b = MethodBuilder("apply", 1, is_static=False)
    b.load(0).getfield("x")
    b.load(1)
    b.invoke_static(class_name, method_name, 2)
    b.ret_val()
    cf.add_method(b.build())
    jit.vm.load_classes([cf])
    return jit.vm.linker.resolve_class(name)


def make_jit(jit, class_name, method_name, cache=None):
    """Specialize the static 2-argument guest method ``class.method`` on
    its first argument, compiling one variant per distinct value.

    Returns ``call(x, y)``; guarantees that execution always runs a code
    path in which ``x`` is a compile-time constant.
    """
    method = jit.vm.linker.resolve_static(class_name, method_name)
    if method.num_params != 2:
        raise GuestTypeError("make_jit needs a 2-argument function")
    closure_cls = _partial_applier_class(jit, class_name, method_name)
    if cache is None:
        cache = CodeCache(telemetry=getattr(jit, "telemetry", None),
                          name="jit_cache")

    def call(x, y):
        def compile_variant():
            closure = new_instance(closure_cls)
            closure.fields["x"] = x
            return jit.compile_closure(closure)
        return cache.get_or_else_update(x, compile_variant)(y)

    call.cache = cache
    return call


def make_hot(jit, class_name, method_name, threshold=2, cache=None,
             background=False, tiered=False):
    """Like :func:`make_jit`, but only compiles a variant after its first
    argument has been seen ``threshold`` times; colder values run in the
    interpreter (amortizing compilation cost, paper's ``calcHOT``).

    With ``background=True``, compilation is submitted to a worker thread
    ("we could add background compilation by submitting the actual
    compilation as a task to a worker thread"): calls keep interpreting
    until the compiled variant lands in the cache. Compilation kick-off
    is guarded by an in-flight set under a lock, so a variant is compiled
    exactly once even when the threshold crossing races another caller or
    an LRU eviction re-triggers the hot path. Results land through
    :meth:`CodeCache.put_if`, so a compile whose key was evicted or
    flushed mid-flight is discarded instead of re-inserted.

    With ``tiered=True``, hot variants ride the tier ladder instead of
    compiling at full strength immediately: the ``threshold``-th sighting
    gets a quick Tier-1 compile, and once the variant has run compiled
    ``jit.options.tier2_threshold`` times it is *replaced* (same cache
    key) by the Tier-2 optimizing compile.
    """
    import threading

    jitted = make_jit(jit, class_name, method_name, cache=cache)
    profile = {}
    pending = {}
    in_flight = set()
    lock = threading.Lock()
    variant_tier = {}       # x -> tier of the cached variant (tiered mode)
    hot_calls = {}          # x -> calls served by the compiled variant
    closure_cls = _partial_applier_class(jit, class_name, method_name)

    def compile_variant(x, options=None):
        closure = new_instance(closure_cls)
        closure.fields["x"] = x
        return jit.compile_closure(closure, options=options)

    def _compile_tiered(x, tier):
        from repro.pipeline.tiers import tier_options
        compiled = compile_variant(x, options=tier_options(jit.options,
                                                           tier))
        jitted.cache.put(x, compiled)   # same key: replace, never stack
        old = variant_tier.get(x)
        variant_tier[x] = tier
        if old is not None and tier > old:
            tel = jit.telemetry
            tel.inc("tier.promotions")
            tel.record("tier.promote", unit="%s.%s@%r"
                       % (class_name, method_name, x),
                       from_tier=old, to_tier=tier,
                       calls=hot_calls.get(x, 0))
        return compiled

    def _spawn_background(x):
        """Start the one background compile for ``x`` (caller holds
        ``lock``) — the in-flight set is what makes a concurrent
        threshold crossing, or an eviction racing a finished worker,
        unable to start a second task for the same key."""
        if x in in_flight:
            return
        in_flight.add(x)
        gen = jitted.cache.generation(x)

        def _land(compiled):
            # put_if: if the key was evicted/removed/flushed while we
            # compiled, the result is stale — drop it, don't re-insert.
            jitted.cache.put_if(x, compiled, gen)

        def _finish():
            with lock:
                in_flight.discard(x)
                pending.pop(x, None)

        def task():
            try:
                _land(compile_variant(x))
            finally:
                _finish()

        worker = threading.Thread(target=task, daemon=True)
        pending[x] = worker
        worker.start()

    def call(x, y):
        compiled = jitted.cache.peek(x)
        if compiled is not None:
            jitted.cache.get(x)   # count the hit, refresh LRU order
            if tiered:
                n = hot_calls.get(x, 0) + 1
                hot_calls[x] = n
                if (variant_tier.get(x, 2) < 2
                        and n >= jit.options.tier2_threshold):
                    compiled = _compile_tiered(x, 2)
            return compiled(y)
        with lock:
            seen = profile.get(x, 0)
            if seen < threshold:
                profile[x] = seen + 1
                cold = True
            else:
                cold = False
                if background:
                    _spawn_background(x)
        if cold or background:
            return jit.vm.call(class_name, method_name, [x, y])
        if tiered:
            hot_calls[x] = hot_calls.get(x, 0) + 1
            return _compile_tiered(x, 1)(y)
        return jitted(x, y)

    call.cache = jitted.cache
    call.profile = profile
    call.pending = pending
    call.in_flight = in_flight
    call.variant_tier = variant_tier
    return call
