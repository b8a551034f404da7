"""Fleet benchmark: the compile server's scale-out economics (ISSUE 9).

Simulates a fleet of Lancet VMs (threads-as-tenants) attached to one
CompileServer and serving streams of guest requests. Two headline
assertions, both enforced in the ``fleet-smoke`` CI job:

1. **Total compiles grow sublinearly (~constant) in VM count** — the
   whole fleet pays each program shape roughly once, whether 1, 4, or
   16 VMs run the identical workload (cross-VM dedup + the shared
   sharded store).
2. **A warm fleet's p99 request latency is below a cold fleet's** —
   first-touch requests against a prewarmed store rehydrate instead of
   compiling (or waiting on a leader's compile). The functional claim
   (zero warm compiles) is a hard gate; the wall-clock comparison
   takes the median of three cold/warm pairs and carries a small noise
   tolerance so shared CI runners don't flake it.

Parameterized for CI via ``REPRO_FLEET_VMS`` / ``REPRO_FLEET_REQUESTS``;
``REPRO_FLEET_JSON=path`` merges each test's numbers into a JSON
artifact the CI job uploads.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

from repro import Lancet
from repro.server import CompileServer

SRC = '''
    def poly(x) {
      var acc = 0;
      var i = 0;
      while (i < 40) { acc = acc + x * i + (acc / 7); i = i + 1; }
      return acc;
    }
    def sq(x) {
      var s = 0;
      var i = 0;
      while (i < x) { s = s + i * i; i = i + 1; }
      return s;
    }
    def scale(x) { return x * 3 + 1; }
    def shift(x) { return x + 11; }
'''

#: The workload's program shapes: every VM touches all of them.
SHAPES = ["poly", "sq", "scale", "shift"]

FLEET_VMS = int(os.environ.get("REPRO_FLEET_VMS", "8"))
FLEET_REQUESTS = int(os.environ.get("REPRO_FLEET_REQUESTS", "200"))

#: Cold/warm fleet pairs whose median p99s the latency check compares.
LATENCY_PAIRS = 3


def run_fleet(cache_dir, n_vms, requests_per_vm):
    """One fleet run: ``n_vms`` tenants each serve ``requests_per_vm``
    guest requests round-robin over the shapes. Returns per-request
    latencies, the fleet's total compile count, and server stats."""
    server = CompileServer(cache_dir=cache_dir, workers=2)
    lock = threading.Lock()
    latencies = []
    compiles = []
    failures = []

    def tenant(idx):
        try:
            jit = Lancet()
            jit.load(SRC)
            jit.attach_compile_server(server)
            lat = []
            for r in range(requests_per_vm):
                shape = SHAPES[r % len(SHAPES)]
                t0 = time.perf_counter()
                fn = jit.compile_function("Main", shape)
                fn(9)
                lat.append(time.perf_counter() - t0)
            n_compiles = jit.telemetry.metrics.get("compiles")
            jit.close()
            with lock:
                latencies.extend(lat)
                compiles.append(n_compiles)
        except Exception as exc:            # surface, don't hang the join
            with lock:
                failures.append("vm-%d: %s" % (idx, exc))

    threads = [threading.Thread(target=tenant, args=(i,))
               for i in range(n_vms)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = server.stats()
    server.close()
    assert not failures, failures
    return {"latencies": latencies, "compiles": sum(compiles),
            "server": stats}


def p99(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def _record(section, payload):
    """Merge one test's numbers into the CI artifact (REPRO_FLEET_JSON)."""
    path = os.environ.get("REPRO_FLEET_JSON")
    if not path:
        return
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    data[section] = payload
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)


def test_total_compiles_sublinear_in_vm_count(tmp_path):
    """Headline 1: an identical workload on 1 / 4 / 16 VMs costs the
    fleet a ~constant number of compiles, not one per VM."""
    per_vm = max(8, len(SHAPES) * 2)
    totals = {}
    for n_vms in (1, 4, 16):
        run = run_fleet(str(tmp_path / ("fleet-%d" % n_vms)), n_vms,
                        per_vm)
        totals[n_vms] = run["compiles"]
    base = totals[1]
    assert base >= len(SHAPES)
    # Sublinear, ~constant: a race may let one straggler tenant compile
    # a shape twice, but growth must stay O(shapes), not O(vms).
    for n_vms in (4, 16):
        assert totals[n_vms] <= base + len(SHAPES), totals
        assert totals[n_vms] < n_vms * base, totals
    _record("sublinear_compiles", {
        "per_vm_requests": per_vm,
        "total_compiles_by_vms": {str(k): v for k, v in totals.items()},
        "shapes": len(SHAPES),
    })


def test_warm_fleet_p99_strictly_below_cold(tmp_path):
    """Headline 2: a fleet inheriting a populated store answers its
    slowest (first-touch) requests by rehydrating, not compiling.

    ``compiles == 0`` is the hard functional gate on every warm run. The
    latency check compares the median p99 of three cold/warm pairs, each
    on a fresh store, with a 5% noise allowance: one run's p99 is a
    handful of requests, which a GC pause or a noisy CI neighbor can
    move by more than the margin a cheap cold compile leaves."""
    cold_p99s, warm_p99s, pairs = [], [], []
    for i in range(LATENCY_PAIRS):
        cache_dir = str(tmp_path / ("fleet-cc-%d" % i))
        cold = run_fleet(cache_dir, FLEET_VMS, FLEET_REQUESTS)
        warm = run_fleet(cache_dir, FLEET_VMS, FLEET_REQUESTS)
        assert warm["compiles"] == 0    # every first touch was a warm hit
        cold_p99s.append(p99(cold["latencies"]))
        warm_p99s.append(p99(warm["latencies"]))
        pairs.append({
            "cold": {"p99_s": cold_p99s[-1], "compiles": cold["compiles"],
                     "dedup_waits": cold["server"]["dedup_waits"]},
            "warm": {"p99_s": warm_p99s[-1], "compiles": warm["compiles"],
                     "dedup_waits": warm["server"]["dedup_waits"]},
        })
    cold_p99 = statistics.median(cold_p99s)
    warm_p99 = statistics.median(warm_p99s)
    assert warm_p99 < cold_p99 * 1.05, (
        "median warm p99 %.6fs not below median cold p99 %.6fs "
        "(+5%% tolerance; per pair cold %r, warm %r)"
        % (warm_p99, cold_p99, cold_p99s, warm_p99s))
    _record("cold_vs_warm", {
        "vms": FLEET_VMS,
        "requests_per_vm": FLEET_REQUESTS,
        "pairs": pairs,
        "cold": {"median_p99_s": cold_p99},
        "warm": {"median_p99_s": warm_p99},
        "p99_speedup": (cold_p99 / warm_p99) if warm_p99 else None,
    })
