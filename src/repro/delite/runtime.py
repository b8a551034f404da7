"""The Delite execution runtime: sequential, simulated-SMP, and "GPU"
backends, with a simulated wall clock for the parallel backends.

Why simulated: CPython's GIL prevents real thread scaling for compute
kernels, and the paper's evaluation machine (multi-socket x86 + CUDA GPU)
is unavailable (repro band: hardware gate). The SMP backend *actually
executes* every chunk (results are real); only the reported time models
parallelism::

    t_parallel = max(chunk times) + sync_overhead(cores)

The GPU backend executes whole-array numpy (vectorized kernels are the
CUDA stand-in) and adds a per-kernel launch overhead.

Parallel-safety gating (``REPRO_PARSAFE`` / ``CompileOptions.parsafe``):
with the mode at ``check`` or ``enforce``, an op must be statically
classified ``ProvenParallel`` by :mod:`repro.analysis.parsafe` before
the smp/gpu backends will touch it — unproven ops fall back to ``seq``
with a ``parsafe.fallback`` event. In ``check`` mode, chunked execution
additionally runs under the :mod:`repro.analysis.raced` write sanitizer,
which records per-chunk write footprints and raises ``RaceDetected`` on
overlap — the dynamic cross-check of the static verdicts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.parsafe import classify_op, parsafe_mode_from_env
from repro.analysis.raced import WriteSanitizer
from repro.delite.ops import (DeliteOp, ElementwiseBuiltin, MapIndexedOp,
                              MapOp, MapReduceOp, RangeMapReduceOp,
                              ReduceBuiltin, ReduceOp, ZipMapOp,
                              ZipWithIndexOp)


class DeliteRuntime:
    """Executes Delite ops; owns the backend config and the sim clock."""

    def __init__(self, backend="seq", cores=1, sync_overhead_us=25.0,
                 gpu_launch_us=40.0, gpu_speed_factor=16.0, parsafe=None):
        self.backend = backend           # 'seq' | 'smp' | 'gpu'
        self.cores = cores
        self.sync_overhead_us = sync_overhead_us
        self.gpu_launch_us = gpu_launch_us
        # Modeled GPU throughput relative to one CPU core on vectorized
        # kernels (calibrated to the paper's GPU-vs-8-core ratios; the
        # actual execution is whole-array numpy either way).
        self.gpu_speed_factor = gpu_speed_factor
        self.sim_time = 0.0              # modeled wall-clock, seconds
        self.real_time = 0.0
        self.ops_run = 0
        self.fused_ops_run = 0
        # Parallel-safety gate: 'off' | 'check' | 'enforce'.
        self.parsafe = parsafe if parsafe is not None \
            else parsafe_mode_from_env()
        self.parsafe_fallbacks = 0       # unproven ops demoted to seq
        self.parsafe_checks = 0          # sanitized chunked launches
        self._np_cache = {}
        # id(guest closure) -> Kernel; the kernel holds its closure, so
        # the id stays unique while the entry lives.
        self.kernels = {}
        self.telemetry = None            # set by repro.jit.api.Lancet

    def configure(self, backend, cores=1):
        self.backend = backend
        self.cores = cores
        return self

    def reset_clock(self):
        self.sim_time = 0.0
        self.real_time = 0.0
        self.ops_run = 0
        self.fused_ops_run = 0

    # -- data conversion -----------------------------------------------------

    def register_data(self, arr):
        """Pre-convert a (large, immutable) guest array to numpy; cached by
        identity so per-op conversion cost disappears, the way Delite keeps
        DeliteArray data device-resident."""
        hit = self._np_cache.get(id(arr))
        if hit is not None:
            return hit
        converted = np.asarray(arr, dtype=np.float64)
        self._np_cache[id(arr)] = converted
        return converted

    def _as_array(self, x):
        if isinstance(x, np.ndarray):
            return x
        hit = self._np_cache.get(id(x))
        if hit is not None:
            return hit
        return np.asarray(x, dtype=np.float64)

    # -- execution ---------------------------------------------------------------

    def run(self, op, *args):
        """Execute one op. The first ``op.n_elem`` args are element inputs."""
        self.ops_run += 1
        fused = "∘" in getattr(getattr(op, "kernel", None), "name", "")
        if fused:
            self.fused_ops_run += 1
        tel = self.telemetry
        if tel is not None:
            tel.inc("delite.kernels")
            if fused:
                tel.inc("delite.fused_kernels")
            tel.record("delite.launch", op=type(op).__name__,
                       backend=self.backend, fused=fused,
                       kernel=getattr(getattr(op, "kernel", None), "name",
                                      None))
        t0 = time.perf_counter()
        if isinstance(op, ZipWithIndexOp):
            result = self._run_zip_with_index(op, args[0])
            elapsed = time.perf_counter() - t0
            self.real_time += elapsed
            self.sim_time += elapsed     # never parallelized (AoS building)
            return result
        if isinstance(op, RangeMapReduceOp):
            # Materialize the index range as the single element input.
            start, end = int(args[0]), int(args[1])
            idx = np.arange(start, end, dtype=np.float64) \
                if op.kernel.vectorized else list(range(start, end))
            args = (idx,) + tuple(args[2:])
            op_n_elem = 1
            elems = [idx]
            uniforms = [self._as_uniform(u) for u in args[1:]]
        else:
            elems = [self._as_elem(op, a) for a in args[:op.n_elem]]
            uniforms = [self._as_uniform(u) for u in args[op.n_elem:]]
        if self._is_indexed(op) and elems:
            # Indexed ops get the index space as an explicit element input
            # so chunked execution sees globally-correct indices.
            elems.append(np.arange(len(elems[0]), dtype=np.float64)
                         if _wants_numpy(op) else list(range(len(elems[0]))))
        want_gpu = self.backend == "gpu" and op.gpu_capable
        want_smp = self.backend == "smp" and self.cores > 1
        if (want_gpu or want_smp) and self.parsafe != "off" \
                and not self._parsafe_admit(op, tel):
            want_gpu = want_smp = False      # refused: run sequentially
        if want_gpu:
            result, sim = self._run_whole(op, elems, uniforms, 0.0)
            sim = sim / self.gpu_speed_factor + self.gpu_launch_us * 1e-6
        elif want_smp:
            result, sim = self._run_chunked(op, elems, uniforms)
        else:
            result, sim = self._run_whole(op, elems, uniforms, 0.0)
        self.real_time += time.perf_counter() - t0
        self.sim_time += sim
        return result

    def _parsafe_admit(self, op, tel):
        """May this op run on a parallel backend? Only statically
        ``ProvenParallel`` ops are admitted; everything else (including
        ``Unknown`` — unproven is unsafe) demotes to ``seq`` with a
        ``parsafe.fallback`` diagnostic."""
        verdict = classify_op(op)
        if verdict.proven_parallel:
            return True
        self.parsafe_fallbacks += 1
        if tel is not None:
            tel.inc("parsafe.fallbacks")
            tel.record("parsafe.fallback", op=type(op).__name__,
                       name=op.name, backend=self.backend,
                       verdict=verdict.status, checker=verdict.checker,
                       blame=verdict.blame)
        return False

    @staticmethod
    def _is_indexed(op):
        return isinstance(op, MapIndexedOp) or (
            isinstance(op, MapReduceOp) and op.indexed)

    def _as_elem(self, op, a):
        if _wants_numpy(op):
            return self._as_array(a)
        return a

    def _as_uniform(self, u):
        if isinstance(u, list):
            return [float(v) if isinstance(v, (int, float)) else v
                    for v in u]
        return u

    # -- whole-array execution ------------------------------------------------------

    def _run_whole(self, op, elems, uniforms, overhead):
        t0 = time.perf_counter()
        result = self._execute(op, elems, uniforms)
        return result, (time.perf_counter() - t0) + overhead

    # -- chunked (simulated SMP) execution ----------------------------------------------

    def _run_chunked(self, op, elems, uniforms):
        from repro.delite.ops import RowSumsOp
        if isinstance(op, RowSumsOp):
            # Chunk boundaries must align with rows; run whole-array.
            return self._run_whole(op, elems, uniforms, 0.0)
        n = len(elems[0]) if elems else 0
        cores = max(1, self.cores)
        if n < cores * 4:
            return self._run_whole(op, elems, uniforms, 0.0)
        bounds = [(i * n) // cores for i in range(cores + 1)]
        sanitizer = None
        if self.parsafe == "check":
            # Dynamic cross-check of the static ProvenParallel verdict:
            # record each chunk's write footprint, fail on overlap.
            sanitizer = WriteSanitizer(op, elems, uniforms)
            self.parsafe_checks += 1
            if self.telemetry is not None:
                self.telemetry.inc("parsafe.checks")
        partials = []
        chunk_times = []
        for c in range(cores):
            lo, hi = bounds[c], bounds[c + 1]
            chunk = [e[lo:hi] for e in elems]
            t0 = time.perf_counter()
            partials.append(self._execute(op, chunk, uniforms))
            chunk_times.append(time.perf_counter() - t0)
            if sanitizer is not None:
                sanitizer.after_chunk(c, lo, hi)
        if sanitizer is not None:
            sanitizer.finish(telemetry=self.telemetry)
        sim = max(chunk_times) + self.sync_overhead_us * 1e-6
        result = self._combine(op, partials)
        return result, sim

    def _combine(self, op, partials):
        if isinstance(op, (ReduceBuiltin,)):
            acc = partials[0]
            for p in partials[1:]:
                acc = op.combine(acc, p)
            if op.finalize is not None:
                acc = op.finalize(acc)
            return acc
        if isinstance(op, (ReduceOp, MapReduceOp, RangeMapReduceOp)):
            acc = partials[0]
            for p in partials[1:]:
                acc = self._reduce_pairwise(op, acc, p)
            return acc
        # Elementwise: concatenate chunk outputs.
        if isinstance(partials[0], np.ndarray):
            return np.concatenate(partials)
        out = []
        for p in partials:
            out.extend(p)
        return out

    def _reduce_pairwise(self, op, a, b):
        kernel = getattr(op, "reduce_kernel", None)
        if kernel is not None:
            return kernel.scalar_fn(a, b)
        # Chunk partials merge with '+'. Only sound when the op's fold is
        # additive — exactly what the parsafe gate requires before a
        # ReduceOp-with-kernel is admitted to smp (a non-associative fold
        # stays ProvenSequential and never reaches this combiner).
        return a + b

    # -- the actual per-pattern execution -----------------------------------------------

    def _execute(self, op, elems, uniforms):
        if isinstance(op, ElementwiseBuiltin):
            return op.numpy_fn(elems, uniforms)
        if isinstance(op, ReduceBuiltin):
            partial = op.numpy_fn(elems, uniforms)
            if op.finalize is not None and self.backend != "smp":
                partial = op.finalize(partial)
            return partial
        if isinstance(op, (MapOp, ZipMapOp)):
            kernel = op.kernel
            if kernel.vectorized and isinstance(elems[0], np.ndarray):
                return kernel.numpy_fn(*elems)
            fn = kernel.scalar_fn
            if len(elems) == 1:
                return [fn(x) for x in elems[0]]
            return [fn(x, y) for x, y in zip(*elems)]
        if isinstance(op, MapIndexedOp):
            # The index array was appended as the last element input.
            kernel = op.kernel
            if kernel.vectorized and isinstance(elems[0], np.ndarray):
                return kernel.numpy_fn(*elems)
            fn = kernel.scalar_fn
            return [fn(x, int(i)) for x, i in zip(*elems)]
        if isinstance(op, MapReduceOp):
            kernel = op.kernel
            if kernel.vectorized and isinstance(elems[0], np.ndarray):
                return float(np.sum(kernel.numpy_fn(*elems)))
            fn = kernel.scalar_fn
            acc = 0
            if op.indexed:
                for x, i in zip(*elems):
                    acc += fn(x, int(i))
            elif len(elems) == 1:
                for x in elems[0]:
                    acc += fn(x)
            else:
                for xs in zip(*elems):
                    acc += fn(*xs)
            return acc
        if isinstance(op, RangeMapReduceOp):
            kernel = op.kernel
            if kernel.vectorized and isinstance(elems[0], np.ndarray):
                return float(np.sum(kernel.numpy_fn(elems[0])))
            acc = 0
            fn = kernel.scalar_fn
            for i in elems[0]:
                acc += fn(int(i))
            return acc
        if isinstance(op, ReduceOp):
            if op.kernel is None:
                if isinstance(elems[0], np.ndarray):
                    return float(np.sum(elems[0]))
                return sum(elems[0], op.zero)
            acc = op.zero
            fn = op.kernel.scalar_fn
            for x in elems[0]:
                acc = fn(acc, x)
            return acc
        raise TypeError("cannot execute %r" % (op,))

    def _run_zip_with_index(self, op, xs):
        # Unfused semantics: materialize pair objects (the AoS cost the
        # paper's fusion+SoA transformation removes).
        make = op.pair_factory
        if make is None:
            return [(x, i) for i, x in enumerate(xs)]
        return [make(x, i) for i, x in enumerate(xs)]


def _wants_numpy(op):
    if isinstance(op, (ElementwiseBuiltin, ReduceBuiltin)):
        return True
    kernel = getattr(op, "kernel", None)
    return kernel is not None and kernel.vectorized
