"""The compile server: the one asynchronous compile queue.

Every background compile (tier promotions, OSR, trace installs) goes
through a :class:`CompileServer`, the paper's ``makeHOT`` "submitting
the actual compilation as a task to a worker thread". A VM built with
``CompileOptions(compile_workers=N)`` owns a private server (no store,
one tenant); ``jit.attach_compile_server`` makes it a tenant of a shared
one instead. Sharing pays because content fingerprints make compiled
units bit-identical across tenants running the same program: the first
tenant compiles, everyone else rehydrates from the shared sharded store.

Four mechanisms:

* **shared sharded store** — given a ``cache_dir``, the server owns a
  :class:`~repro.server.shards.ShardedCodeCache`; attaching a tenant
  points its ``codecache`` at it, so ordinary warm-start lookups become
  fleet-wide. A queued request for a key another tenant already compiled
  is an ordinary request: its compile loads the unit from the store
  before it would build one, so it rehydrates instead of recompiling.
* **cross-VM dedup** (:meth:`coordinate`): tenants about to compile a
  fingerprint register it; a second tenant arriving mid-compile blocks
  on the leader's completion event, then re-probes the store — a warm
  hit, one compile total. Worker threads and re-entrant compiles never
  block (deadlock-free by construction).
* **admission control** — the queue is bounded globally and per
  tenant. At either bound a strictly more urgent arrival sheds the
  lowest-priority queued request (the tenant's own, at its cap), and
  anything else is rejected: one hot VM exhausting its slice is refused
  instead of starving the fleet. A key whose compile failed
  :data:`BLACKLIST_AFTER` times is refused outright, so a poisoned unit
  cannot recompile on every call.
* **fair scheduling** — workers drain priorities in order; within a
  priority, tenants are served round-robin, one request per turn.

``workers=0`` runs the server in *manual-drain* mode (:meth:`drain`),
used by deterministic tests and the warm-start benchmark.

Requests never retry: a failed, shed or refused request is reported to
its submitter (``on_error`` fires once), whose fallback is the
interpreter or its current tier, and which re-requests on a later call.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque

from repro.observability import Telemetry
from repro.server.shards import ShardedCodeCache

#: Priorities, best first. Lower value = more urgent.
PRIORITY_OSR = 0        # a hot loop is waiting mid-execution
PRIORITY_TIER2 = 1      # tier-2 optimizing promotion
PRIORITY_TIER1 = 2      # tier-1 quick compile

#: Queued requests across all tenants.
QUEUE_LIMIT = 128
#: Queued requests of one tenant.
PER_TENANT_LIMIT = 32
#: Failed compiles after which a key is refused at submit.
BLACKLIST_AFTER = 3
#: Seconds a :meth:`CompileServer.coordinate` waiter trusts its leader.
SYNC_WAIT_TIMEOUT = 60.0

QUEUED, RUNNING, DONE, FAILED, CANCELLED, REJECTED = (
    "queued", "running", "done", "failed", "cancelled", "rejected")


class CompileRequest:
    """A handle on one submitted compilation. ``wait()`` for the result,
    ``cancel()`` to drop interest; terminal states: done | failed |
    cancelled | rejected."""

    def __init__(self, key, fn, priority, tenant, on_complete=None,
                 on_error=None):
        self.key = key
        self.fn = fn
        self.priority = priority
        self.tenant = tenant
        self.on_complete = on_complete
        self.on_error = on_error
        self.state = QUEUED
        self.result = None
        self.error = None
        self._event = threading.Event()

    @property
    def rejected(self):
        return self.state == REJECTED

    @property
    def finished(self):
        return self._event.is_set()

    def cancel(self):
        """Drop interest: a queued request never runs; a running one has
        its result discarded. Callbacks are not invoked."""
        if not self._event.is_set() or self.state == RUNNING:
            self.state = CANCELLED
            self._event.set()

    def wait(self, timeout=None):
        """Block until the request reaches a terminal state (or
        ``timeout`` elapses); returns the compiled result or ``None``."""
        self._event.wait(timeout)
        return self.result if self.state == DONE else None

    def _finish(self, state, result=None, error=None):
        self.state = state
        self.result = result
        self.error = error
        self._event.set()

    def __repr__(self):
        return "<CompileRequest %r %s prio=%d tenant=%s>" % (
            self.key, self.state, self.priority, self.tenant)


class CompileServer:
    """A compile daemon: sharded store + fair bounded queue + dedup."""

    def __init__(self, cache_dir=None, workers=2, telemetry=None):
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.store = None
        if cache_dir:
            self.store = ShardedCodeCache(cache_dir,
                                          telemetry=self.telemetry)
        self.workers = max(0, workers)
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._queues = {}           # priority -> OrderedDict(tenant -> deque)
        self._depth = 0
        self._tenant_depth = {}     # tenant -> queued count
        self._inflight = {}         # (key, tenant) -> queued|running request
        self._failures = {}         # key -> failed compiles
        self._threads = []
        self._worker_idents = set()
        self._closed = False
        self._tenants = []
        self._tenant_seq = 0
        # Synchronous (coordinate) dedup state.
        self._sync_lock = threading.Lock()
        self._sync_inflight = {}    # fingerprint -> (Event, leader ident)
        # Counters (under self._lock unless noted).
        self.submits = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.rejected = 0
        self.dedup_waits = 0        # under _sync_lock

    # -- telemetry -------------------------------------------------------------

    def _event(self, kind, **data):
        tel = self.telemetry
        tel.inc(kind)
        tel.record(kind, **data)

    def _gauge_depth_locked(self):
        self.telemetry.set_gauge("server.queue_depth", self._depth)

    # -- tenants ---------------------------------------------------------------

    def register_tenant(self, name=None):
        with self._lock:
            self._tenant_seq += 1
            tenant = name or ("vm-%d" % self._tenant_seq)
            self._tenants.append(tenant)
        self._event("server.attach", tenant=tenant)
        return tenant

    # -- asynchronous submission -----------------------------------------------

    def submit(self, key, fn, priority=PRIORITY_TIER1, tenant="anon",
               on_complete=None, on_error=None):
        """Enqueue ``fn`` (a zero-argument compile callable) under
        ``key`` for ``tenant``. Never raises, never blocks; check
        ``request.rejected`` for admission refusal (the tenant's
        fallback is the interpreter or its current tier).
        """
        req = CompileRequest(key, fn, priority, tenant,
                             on_complete=on_complete, on_error=on_error)
        shed = []
        with self._cv:
            if self._closed:
                req._finish(REJECTED, error="server closed")
                return req
            if self._failures.get(key, 0) >= BLACKLIST_AFTER:
                return self._reject_locked(req, "blacklisted")
            if self._tenant_depth.get(tenant, 0) >= PER_TENANT_LIMIT:
                shed = self._shed_for_locked(priority, tenant)
                if not shed:
                    return self._reject_locked(req, "tenant queue full")
            elif self._depth >= QUEUE_LIMIT:
                shed = self._shed_for_locked(priority)
                if not shed:
                    return self._reject_locked(req, "queue full")
            by_tenant = self._queues.setdefault(priority, OrderedDict())
            by_tenant.setdefault(tenant, deque()).append(req)
            self._depth += 1
            self._tenant_depth[tenant] = self._tenant_depth.get(tenant, 0) + 1
            self._inflight[key, tenant] = req
            self._gauge_depth_locked()
            self.submits += 1
            self._event("server.submit", key=repr(key), tenant=tenant,
                        priority=priority, depth=self._depth)
            self._ensure_workers()
            self._cv.notify()
        self._fail(shed, "shed under backpressure")
        return req

    def _reject_locked(self, req, reason):
        self.rejected += 1
        req._finish(REJECTED, error=reason)
        self._event("server.reject", key=repr(req.key), tenant=req.tenant,
                    reason=reason)
        return req

    def _remove_queued_locked(self, req):
        """Unlink ``req`` from its queue; a no-op when it is not queued
        (a running request)."""
        dq = self._queues.get(req.priority, {}).get(req.tenant)
        if not dq or req not in dq:
            return
        dq.remove(req)
        if not dq:
            del self._queues[req.priority][req.tenant]
        self._depth -= 1
        self._tenant_depth[req.tenant] -= 1
        self._gauge_depth_locked()

    def _shed_for_locked(self, priority, tenant=None):
        """Backpressure: unlink the newest request of the least urgent
        nonempty priority strictly below ``priority`` (only ``tenant``'s
        requests when given: a tenant at its cap sheds its own). Returns
        the requests to fail (the caller does, outside the lock); []
        when nothing is less urgent."""
        for prio in sorted(self._queues, reverse=True):
            if prio <= priority:
                break
            by_tenant = self._queues[prio]
            owners = [t for t in (by_tenant if tenant is None else (tenant,))
                      if by_tenant.get(t)]
            if not owners:
                continue
            # Shed from the tenant hogging the most of this priority.
            owner = max(owners, key=lambda t: len(by_tenant[t]))
            victim = by_tenant[owner][-1]
            self._remove_queued_locked(victim)
            self._forget_locked(victim)
            self.shed += 1
            self._event("server.shed", key=repr(victim.key), tenant=owner,
                        priority=prio)
            return [victim]
        return []

    def _forget_locked(self, req):
        if self._inflight.get((req.key, req.tenant)) is req:
            del self._inflight[req.key, req.tenant]

    def cancel(self, key, tenant="anon"):
        """Cancel ``tenant``'s queued or running request for ``key``."""
        with self._cv:
            req = self._inflight.pop((key, tenant), None)
            if req is None:
                return None
            self._remove_queued_locked(req)
        req.cancel()
        return req

    # -- scheduling ------------------------------------------------------------

    def _pop_locked(self):
        """The next request: the head of the queue of the tenant whose
        round-robin turn it is, at the most urgent nonempty priority.
        Returns None when idle."""
        for prio in sorted(self._queues):
            by_tenant = self._queues[prio]
            if by_tenant:
                tenant, dq = next(iter(by_tenant.items()))
                req = dq.popleft()
                if dq:
                    by_tenant.move_to_end(tenant)
                else:
                    del by_tenant[tenant]
                self._depth -= 1
                self._tenant_depth[tenant] -= 1
                self._gauge_depth_locked()
                return req
        return None

    def _ensure_workers(self):
        while len(self._threads) < self.workers:
            t = threading.Thread(target=self._worker_loop, daemon=True,
                                 name="lancet-server-%d" % len(self._threads))
            self._threads.append(t)
            t.start()

    def _worker_loop(self):
        self._worker_idents.add(threading.get_ident())
        while True:
            with self._cv:
                req = self._pop_locked()
                while req is None:
                    if self._closed:
                        return
                    self._cv.wait()
                    req = self._pop_locked()
            self._run_one(req)

    def drain(self):
        """Manual-drain mode (``workers=0``): run queued requests on the
        calling thread until the queue is empty. Returns the number of
        requests run."""
        ran = 0
        while True:
            with self._cv:
                req = self._pop_locked()
            if req is None:
                return ran
            self._run_one(req)
            ran += 1

    def _run_one(self, req):
        if req.finished:
            # Cancelled through its CompileRequest handle while queued
            # (bypassing CompileServer.cancel).
            self._unlink(req)
            return
        req.state = RUNNING
        t0 = time.perf_counter()
        try:
            result, error = req.fn(), None
        except Exception as exc:
            result, error = None, str(exc)
        if req.state == CANCELLED:
            self._unlink(req)
            self._event("server.discard", key=repr(req.key),
                        tenant=req.tenant)
        elif error is not None:
            self._unlink(req, FAILED)
            req._finish(FAILED, error=error)
            self._event("server.fail", key=repr(req.key), tenant=req.tenant,
                        error=error)
            self._notify_error(req)
        else:
            self._unlink(req, DONE)
            self.telemetry.observe("server.run", time.perf_counter() - t0)
            req._finish(DONE, result=result)
            self._event("server.done", key=repr(req.key), tenant=req.tenant)
            if req.on_complete is not None:
                try:
                    req.on_complete(result)
                except Exception as exc:    # callbacks must not kill workers
                    self._event("server.callback_error", key=repr(req.key),
                                error=str(exc))

    def _unlink(self, req, outcome=None):
        """A request left the queue for good: drop it from the in-flight
        table and count its ``outcome`` (DONE or FAILED, when it ran and
        was not cancelled; a failure also counts against its key)."""
        with self._cv:
            self._forget_locked(req)
            if outcome == DONE:
                self.completed += 1
            elif outcome == FAILED:
                self.failed += 1
                self._failures[req.key] = self._failures.get(req.key, 0) + 1

    def _fail(self, reqs, error):
        """Fail requests that will never run and fire each one's
        ``on_error`` once. Call without the lock held."""
        for req in reqs:
            if not req.finished:
                req._finish(FAILED, error=error)
                self._notify_error(req)

    def _notify_error(self, req):
        if req.on_error is not None:
            try:
                req.on_error(req.error)
            except Exception as exc:
                self._event("server.callback_error", key=repr(req.key),
                            error=str(exc))

    # -- synchronous cross-VM dedup --------------------------------------------

    def coordinate(self, fingerprint, fn, tenant=None):
        """Run ``fn`` (a load-or-compile closure probing the shared
        store first) with fingerprint-level dedup: the first tenant in
        is the leader and compiles; tenants arriving mid-compile wait
        for the leader, then run ``fn`` against the now-warm store — a
        rehydrate, not a second compile.

        Never deadlocks: server worker threads and the leader's own
        thread (re-entrant compiles) run ``fn`` immediately; a waiter
        abandoned past :data:`SYNC_WAIT_TIMEOUT` (leader crashed hard)
        compiles for itself. A closed server just runs ``fn``.
        """
        if self._closed:
            return fn()
        me = threading.get_ident()
        if me in self._worker_idents:
            return fn()
        with self._sync_lock:
            entry = self._sync_inflight.get(fingerprint)
            if entry is None:
                event = threading.Event()
                self._sync_inflight[fingerprint] = (event, me)
                leader = True
            elif entry[1] == me:
                return fn()         # re-entrant compile from the leader
            else:
                leader = False
                event = entry[0]
                self.dedup_waits += 1
        if leader:
            try:
                return fn()
            finally:
                with self._sync_lock:
                    self._sync_inflight.pop(fingerprint, None)
                event.set()
        self._event("server.dedup_wait", fingerprint=fingerprint,
                    tenant=tenant)
        event.wait(SYNC_WAIT_TIMEOUT)
        return fn()

    # -- lifecycle / stats -----------------------------------------------------

    @property
    def closed(self):
        return self._closed

    def close(self, wait=True):
        """Stop the workers and fail every queued request with
        ``on_error``; a running request finishes."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            victims = [req for by_tenant in self._queues.values()
                       for dq in by_tenant.values() for req in dq]
            self._queues.clear()
            self._depth = 0
            self._tenant_depth.clear()
            self._inflight.clear()
            self._gauge_depth_locked()
            self._cv.notify_all()
        self._fail(victims, "server closed")
        if wait:
            for t in self._threads:
                t.join(timeout=2.0)
        self._event("server.close", tenants=len(self._tenants))

    def stats(self):
        with self._lock:
            depth = self._depth
            inflight = len(self._inflight)
            tenants = list(self._tenants)
            per_tenant = dict(self._tenant_depth)
            blacklisted = sorted(repr(k) for k, n in self._failures.items()
                                 if n >= BLACKLIST_AFTER)
        return {
            "workers": self.workers,
            "closed": self._closed,
            "queue_depth": depth,
            "queue_limit": QUEUE_LIMIT,
            "per_tenant_limit": PER_TENANT_LIMIT,
            "queued_per_tenant": per_tenant,
            "in_flight": inflight,
            "tenants": tenants,
            "submits": self.submits,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "rejected": self.rejected,
            "blacklisted": blacklisted,
            "dedup_waits": self.dedup_waits,
            "store": self.store.stats() if self.store is not None else None,
        }


# -- process-global server registry ------------------------------------------
#
# REPRO_COMPILE_SERVER=<cache-dir> auto-attaches every new Lancet in the
# process to one shared CompileServer per cache directory — threads-as-
# tenants with zero wiring. Cross-process fleets share through the
# sharded store on disk; each process runs one server front-end over it.

_SHARED = {}
_SHARED_LOCK = threading.Lock()


def shared_server(cache_dir, **kwargs):
    """The process-wide CompileServer for ``cache_dir`` (created on
    first use; later ``kwargs`` are ignored)."""
    key = os.path.abspath(cache_dir)
    with _SHARED_LOCK:
        server = _SHARED.get(key)
        if server is None or server.closed:
            server = CompileServer(cache_dir=key, **kwargs)
            _SHARED[key] = server
        return server


def close_shared_servers():
    """Close and forget every registry server (tests, interpreter exit)."""
    with _SHARED_LOCK:
        servers = list(_SHARED.values())
        _SHARED.clear()
    for server in servers:
        server.close()
