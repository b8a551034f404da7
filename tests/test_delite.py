"""Delite substrate: kernels, vectorizer, ops, runtime backends, fusion."""

import gc
import weakref

import numpy as np
import pytest

from repro import Lancet
from repro.compiler.compiled import CompiledFunction
from repro.delite.kernels import Kernel
from repro.delite.ops import (CLUSTER_SUMS_2D, DOT, NEAREST_2D, SIGMOID,
                              VSUB, VSUM, MapIndexedOp, MapOp, MapReduceOp,
                              RangeMapReduceOp, ReduceOp, ZipMapOp,
                              mat_vec_cols, weighted_col_sums)
from repro.delite.runtime import DeliteRuntime
from repro.errors import GuestIndexError


@pytest.fixture
def jit():
    return Lancet()


_CLOSURE_COUNT = [0]


def guest_closure(jit, body):
    _CLOSURE_COUNT[0] += 1
    module = "KernelSrc%d" % _CLOSURE_COUNT[0]
    jit.load("def mk() { return %s; }" % body, module=module)
    return jit.vm.call(module, "mk")


class TestKernelVectorizer:
    def test_arithmetic_kernel_vectorizes(self, jit):
        closure = guest_closure(jit, "fun(x) => x * x + 1.0")
        kernel = Kernel.from_closure(jit, closure)
        assert kernel.vectorized
        arr = np.array([1.0, 2.0, 3.0])
        assert np.allclose(kernel.numpy_fn(arr), arr * arr + 1.0)
        assert kernel.scalar_fn(3.0) == 10.0

    def test_math_natives_vectorize(self, jit):
        closure = guest_closure(jit, "fun(x) => Math.exp(0.0 - x)")
        kernel = Kernel.from_closure(jit, closure)
        assert kernel.vectorized
        arr = np.array([0.0, 1.0])
        assert np.allclose(kernel.numpy_fn(arr), np.exp(-arr))

    def test_control_flow_kernel_falls_back_to_scalar(self, jit):
        closure = guest_closure(
            jit, "fun(x) { if (x > 0) { return x; } return 0 - x; }")
        kernel = Kernel.from_closure(jit, closure)
        assert not kernel.vectorized
        assert kernel.scalar_fn(-3) == 3

    def test_two_arg_kernel(self, jit):
        closure = guest_closure(jit, "fun(x, y) => x * y - 1.0")
        kernel = Kernel.from_closure(jit, closure)
        assert kernel.vectorized
        a, b = np.array([2.0, 3.0]), np.array([4.0, 5.0])
        assert np.allclose(kernel.numpy_fn(a, b), a * b - 1.0)

    def test_compose(self, jit):
        inner = Kernel.from_closure(jit, guest_closure(jit, "fun(x) => x + 1.0"))
        outer = Kernel.from_closure(jit, guest_closure(jit, "fun(x) => x * 2.0"))
        fused = inner.compose(outer)
        assert fused.scalar_fn(3.0) == 8.0
        assert fused.vectorized
        assert np.allclose(fused.numpy_fn(np.array([3.0])), [8.0])


class TestRuntimeBackends:
    def run_all_backends(self, op, *args, cores=(1, 2, 4)):
        results = []
        for backend, c in [("seq", 1)] + [("smp", c) for c in cores] \
                + [("gpu", 1)]:
            rt = DeliteRuntime(backend=backend, cores=c)
            results.append(rt.run(op, *args))
        return results

    def test_map_consistent_across_backends(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(x) => x * 3.0"))
        xs = [float(i) for i in range(100)]
        results = self.run_all_backends(MapOp(kernel), xs)
        for r in results:
            assert np.allclose(np.asarray(r), np.asarray(xs) * 3.0)

    def test_reduce_consistent(self, jit):
        xs = [float(i) for i in range(1000)]
        for r in self.run_all_backends(ReduceOp(None), xs):
            assert r == pytest.approx(sum(xs))

    def test_mapreduce(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(x) => x * x"))
        xs = [float(i) for i in range(200)]
        for r in self.run_all_backends(MapReduceOp(kernel), xs):
            assert r == pytest.approx(sum(x * x for x in xs))

    def test_zipmap(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(x, y) => x - y"))
        a = [float(i) for i in range(50)]
        b = [float(2 * i) for i in range(50)]
        for r in self.run_all_backends(ZipMapOp(kernel), a, b):
            assert np.allclose(np.asarray(r), np.asarray(a) - np.asarray(b))

    def test_sim_clock_advances(self, jit):
        rt = DeliteRuntime(backend="smp", cores=4)
        xs = list(np.linspace(0, 1, 10000))
        rt.run(VSUM, xs)
        assert rt.sim_time > 0
        assert rt.ops_run == 1

    def test_smp_sim_time_below_seq_for_large_inputs(self):
        xs = np.linspace(0, 1, 2_000_000)
        seq = DeliteRuntime(backend="seq")
        smp = DeliteRuntime(backend="smp", cores=8, sync_overhead_us=5)
        r1 = seq.run(SIGMOID, xs)
        r2 = smp.run(SIGMOID, xs)
        assert np.allclose(r1, np.concatenate([r2]) if isinstance(r2, list)
                           else r2)
        assert smp.sim_time < seq.sim_time

    def test_register_data_caches_conversion(self):
        rt = DeliteRuntime()
        xs = [1.0, 2.0]
        arr = rt.register_data(xs)
        assert rt._as_array(xs) is arr

    def test_register_data_never_serves_a_reused_id(self):
        # The cache holds the registered list, so a new list can never
        # take its id and read its data.
        rt = DeliteRuntime()
        kept = []
        a = [1.0, 2.0, 3.0]
        rt.register_data(a)
        key = id(a)
        del a
        b = [7.0, 8.0, 9.0]
        while id(b) != key and len(kept) < 1000:
            kept.append(b)
            b = [7.0, 8.0, 9.0]
        assert list(rt._as_array(b)) == [7.0, 8.0, 9.0]


class TestBuiltins:
    def test_nearest2d(self):
        rt = DeliteRuntime()
        px, py = [0.0, 10.0, 0.1], [0.0, 0.0, 0.0]
        assign = rt.run(NEAREST_2D, px, py, [0.0, 10.0], [0.0, 0.0])
        assert list(assign) == [0, 1, 0]

    def test_cluster_sums(self):
        rt = DeliteRuntime()
        sums = rt.run(CLUSTER_SUMS_2D, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                      [0, 1, 0], 2)
        assert list(sums[0]) == [4.0, 2.0]
        assert list(sums[1]) == [10.0, 5.0]
        assert list(sums[2]) == [2.0, 1.0]

    def test_cluster_sums_chunked_combine(self):
        seq = DeliteRuntime(backend="seq")
        smp = DeliteRuntime(backend="smp", cores=4)
        n = 1000
        px = [float(i) for i in range(n)]
        py = [float(2 * i) for i in range(n)]
        assign = [i % 3 for i in range(n)]
        a = seq.run(CLUSTER_SUMS_2D, px, py, assign, 3)
        b = smp.run(CLUSTER_SUMS_2D, px, py, assign, 3)
        assert np.allclose(a, b)

    def test_matvec_and_gradient(self):
        rt = DeliteRuntime()
        cols = [[1.0, 2.0], [3.0, 4.0]]
        w = [0.5, 0.25]
        z = rt.run(mat_vec_cols(2), cols[0], cols[1], w)
        assert np.allclose(z, [1 * .5 + 3 * .25, 2 * .5 + 4 * .25])
        grad = rt.run(weighted_col_sums(2), cols[0], cols[1], [1.0, -1.0])
        assert np.allclose(grad, [1 - 2, 3 - 4])

    def test_dot_and_vsub_and_sigmoid(self):
        rt = DeliteRuntime()
        assert rt.run(DOT, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)
        assert np.allclose(rt.run(VSUB, [5.0], [2.0]), [3.0])
        assert np.allclose(rt.run(SIGMOID, [0.0]), [0.5])


class TestFusionInIR:
    def make(self, jit, body, module):
        from repro.optiml import load_optiml
        load_optiml(jit)
        jit.load(body, module=module)
        return jit.vm.call(module, "mk")

    def test_map_map_fuses(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [1.0, 2.0, 3.0];
              return Lancet.compile(fun(d) {
                var a = Optiml.vmap(xs, fun(x) => x + 1.0);
                var b = Optiml.vmap(a, fun(x) => x * 2.0);
                return b;
              });
            }
        ''', "FuseMM")
        out = cf(0)
        assert np.allclose(np.asarray(out), [(x + 1) * 2 for x in [1, 2, 3]])
        assert cf.source.count("_drun") == 1      # fused to one op

    def test_sum_of_map_becomes_mapreduce(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [1.0, 2.0, 3.0, 4.0];
              return Lancet.compile(fun(d) {
                var sq = Optiml.vmap(xs, fun(x) => x * x);
                return Optiml.vsum(sq);
              });
            }
        ''', "FuseMR")
        # vsum is a builtin reduce; vmap producer feeds it — the current
        # fusion handles ReduceOp(None) over maps (reduceSum path).
        assert cf(0) == pytest.approx(30.0)

    def test_zipwithindex_map_reduce_fuses_to_soa(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [10.0, 20.0, 30.0];
              return Lancet.compile(fun(d) {
                var pairs = Optiml.zipWithIndex(xs);
                var vals = Optiml.mapArr(pairs, fun(p) => p.snd * p.fst);
                return Optiml.reduceSum(vals);
              });
            }
        ''', "FuseSoA")
        assert cf(0) == pytest.approx(0 * 10 + 1 * 20 + 2 * 30)
        assert cf.source.count("_drun") == 1      # single fused op
        # and no Pair construction remains anywhere in the pipeline
        assert "_newinst" not in cf.source

    def test_fusion_disabled_by_option(self, jit):
        from repro import CompileOptions
        from repro.optiml import load_optiml
        jit = Lancet(options=CompileOptions(delite_fusion=False))
        load_optiml(jit)
        jit.load('''
            def mk() {
              var xs = [1.0, 2.0];
              return Lancet.compile(fun(d) {
                var a = Optiml.vmap(xs, fun(x) => x + 1.0);
                return Optiml.vsum(a);
              });
            }
        ''', "NoFuse")
        cf = jit.vm.call("NoFuse", "mk")
        assert cf(0) == pytest.approx(5.0)
        assert cf.source.count("_drun") == 2      # unfused

    def test_observed_intermediate_not_fused(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [1.0, 2.0];
              return Lancet.compile(fun(d) {
                var a = Optiml.vmap(xs, fun(x) => x + 1.0);
                var s = Optiml.vsum(a);
                return s + a[0];     // `a` observed: must stay materialized
              });
            }
        ''', "FuseObs")
        assert cf(0) == pytest.approx(5.0 + 2.0)
        assert cf.source.count("_drun") == 2


class TestSumRange:
    """The paper's Fig. 8 operator: sum(start, end)(block) as a
    DeliteOpMapReduce over an index range."""

    def make(self, jit):
        from repro.optiml import load_optiml
        load_optiml(jit)
        jit.load('''
            def mk() {
              return Lancet.compile(fun(d) =>
                Optiml.sumRange(0, 100, fun(i) => i * i));
            }
        ''', module="SumRangeT")
        return jit.vm.call("SumRangeT", "mk")

    def test_matches_interpreted(self, jit):
        cf = self.make(jit)
        expected = sum(i * i for i in range(100))
        assert cf(0) == expected
        assert "_drun" in cf.source      # macro fired

    def test_all_backends_agree(self, jit):
        cf = self.make(jit)
        expected = sum(i * i for i in range(100))
        for backend, cores in [("seq", 1), ("smp", 2), ("smp", 8),
                               ("gpu", 1)]:
            jit.delite.configure(backend, cores=cores)
            assert cf(0) == expected

    def test_kernel_vectorizes(self, jit):
        cf = self.make(jit)
        jit.delite.reset_clock()
        jit.delite.configure("gpu")
        cf(0)
        assert jit.delite.ops_run == 1


class TestChunkLoops:
    """Per-element kernels run as one generated loop per chunk, with the
    kernel body inlined; each result must be exactly what the
    per-element scalar path returns."""

    UNARY = "fun(x) { if (x > 20.0) { return x * 0.5; } return x + 0.1; }"
    BINARY = ("fun(x, y) { var s = 0.0; var i = 0;"
              " while (i < 3) { s = s + x * y + i; i = i + 1; }"
              " return s; }")
    RANGE = ("fun(i) { var s = 0; var k = 0;"
             " while (k < i) { s = s + k * i; k = k + 1; } return s; }")
    EARLY = ("fun(x) { var i = 0; while (i < 10) {"
             " if (i * i > x) { return i; } i = i + 1; } return 0 - 1; }")

    def cases(self, jit):
        k = {}
        for name in ("UNARY", "BINARY", "RANGE", "EARLY"):
            k[name] = Kernel.from_closure(
                jit, guest_closure(jit, getattr(self, name)))
            assert not k[name].vectorized
        xs = [float(i) * 1.37 for i in range(37)]
        ys = [float(i % 5) - 1.9 for i in range(37)]
        unary = [k["UNARY"].scalar_fn(x) for x in xs]
        early = [k["EARLY"].scalar_fn(x) for x in xs]
        zipped = [k["BINARY"].scalar_fn(x, y) for x, y in zip(xs, ys)]
        indexed = [k["BINARY"].scalar_fn(x, i) for i, x in enumerate(xs)]
        # (op factory, kernel, args, what a sequential host loop gives)
        return [
            (MapOp, k["UNARY"], (xs,), unary),
            (ZipMapOp, k["BINARY"], (xs, ys), zipped),
            (MapIndexedOp, k["BINARY"], (xs,), indexed),
            (MapReduceOp, k["UNARY"], (xs,), sum(unary)),
            (MapOp, k["EARLY"], (xs,), early),
            (MapReduceOp, k["EARLY"], (xs,), sum(early)),
            (lambda kern: MapReduceOp(kern, n_elem=2), k["BINARY"],
             (xs, ys), sum(zipped)),
            (lambda kern: MapReduceOp(kern, indexed=True), k["BINARY"],
             (xs,), sum(indexed)),
            (RangeMapReduceOp, k["RANGE"], (3, 41),
             sum(k["RANGE"].scalar_fn(i) for i in range(3, 41))),
        ]

    @pytest.mark.parametrize("backend,cores", [("seq", 1), ("smp", 2),
                                               ("smp", 3)])
    def test_each_pattern_matches_the_scalar_path(self, jit, backend,
                                                  cores, monkeypatch):
        calls = [0]
        real_call = CompiledFunction.__call__

        def counting_call(self, *args):
            calls[0] += 1
            return real_call(self, *args)

        monkeypatch.setattr(CompiledFunction, "__call__", counting_call)
        for make, kernel, args, host in self.cases(jit):
            scalar = Kernel.from_host(
                lambda *xs, fn=kernel.scalar_fn: fn(*xs), kernel.arity)
            # Parsafe cannot prove a host kernel parallel; run it on the
            # same chunks regardless.
            want_rt = DeliteRuntime(backend=backend, cores=cores,
                                    parsafe="off")
            want = want_rt.run(make(scalar), *args)
            assert want_rt.chunk_fallbacks > 0
            calls[0] = 0
            rt = DeliteRuntime(backend=backend, cores=cores)
            got = rt.run(make(kernel), *args)
            assert got == want and type(got) is type(want), make
            # Chunked float sums may associate differently from one loop.
            assert got == pytest.approx(host, rel=1e-12), make
            assert rt.chunk_fallbacks == 0
            assert calls[0] == 0, "kernel called per element"

    def test_guarded_kernel_keeps_the_scalar_path(self, jit):
        jit.telemetry.enable_trace()
        kernel = Kernel.from_closure(jit, guest_closure(
            jit, "fun(x) { Lancet.speculate(x > 0.0); return x * 2.0; }"))
        assert not kernel.vectorized
        out = jit.delite.run(MapOp(kernel), [1.0, 2.0, -3.0, 4.0])
        assert out == [2.0, 4.0, -6.0, 8.0]
        assert kernel.scalar_fn.deopt_count == 1   # resumed interpreted
        assert jit.delite.chunk_fallbacks == 1
        assert jit.telemetry.metrics.get("delite.chunk_fallbacks") == 1
        (event,) = jit.telemetry.events("delite.chunk_fallback")
        assert event.data["reason"] == "can deopt (guard)"

    def test_host_and_composed_kernels_keep_the_scalar_path(self, jit):
        jit.telemetry.enable_trace()
        host = Kernel.from_host(lambda x: x + 1, 1)
        inner = Kernel.from_closure(jit, guest_closure(jit, self.UNARY))
        composed = inner.compose(inner)
        assert jit.delite.run(MapOp(host), [1, 2]) == [2, 3]
        assert jit.delite.run(MapOp(composed), [1.0]) == [1.0 + 0.1 + 0.1]
        assert [e.data["reason"] for e in
                jit.telemetry.events("delite.chunk_fallback")] == [
            "no IR", "no IR"]

    def test_kernel_that_writes_its_stable_field_keeps_the_scalar_path(
            self, jit):
        # Each element's write invalidates the kernel, so the next one
        # must run recompiled code, not the rest of a stale chunk.
        jit.telemetry.enable_trace()
        jit.load('''
            class Cell { var v; def init(v) { this.v = v; } }
            def mk(c) {
              return fun(x) { var old = c.v; c.v = x; return old + x; };
            }
        ''', module="StableCell")
        jit.mark_stable("Cell", "v")
        cell = jit.vm.new_object("Cell", [1.0])
        kernel = Kernel.from_closure(
            jit, jit.vm.call("StableCell", "mk", [cell]))
        out = jit.delite.run(MapReduceOp(kernel), [2.0, 3.0, 4.0])
        assert out == (1.0 + 2.0) + (2.0 + 3.0) + (3.0 + 4.0)
        assert [e.data["reason"] for e in
                jit.telemetry.events("delite.chunk_fallback")] == [
            "reads @stable fields and may write"]

    def test_invalidated_kernel_recompiles_and_rebuilds(self, jit):
        kernel = Kernel.from_closure(jit, guest_closure(jit, self.UNARY))
        op = MapReduceOp(kernel)
        xs = [1.0, 30.0, 2.5]
        want = jit.delite.run(op, xs)
        shape = (True, 1, False)
        old_fn, old_loop, _ = kernel._chunks[shape]
        kernel.scalar_fn.invalidate("test")
        assert jit.delite.run(op, xs) == want       # scalar, recompiles
        assert kernel.scalar_fn.compile_count == 2
        assert jit.delite.chunk_fallbacks == 1
        assert jit.delite.run(op, xs) == want       # a rebuilt loop
        fn, loop, _ = kernel._chunks[shape]
        assert fn is kernel.scalar_fn.fn and fn is not old_fn
        assert loop is not None and loop is not old_loop
        assert jit.delite.chunk_fallbacks == 1

    def test_out_of_range_subscript_raises_guest_index_error(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(s) => charCode(s, 3)"))
        op = MapOp(kernel)
        assert jit.delite.run(op, ["abcd", "wxyz"]) == [100, 122]
        with pytest.raises(GuestIndexError):
            jit.delite.run(op, ["abcd", "ab"])
        assert jit.delite.chunk_fallbacks == 0

    def test_shorter_second_input_raises_on_either_path(self, jit):
        kernel = Kernel.from_closure(jit, guest_closure(jit, self.BINARY))
        host = Kernel.from_host(lambda x, y: kernel.scalar_fn(x, y), 2)
        xs = [1.0, 2.0, 3.0]
        for kern in (kernel, host):
            for op in (ZipMapOp(kern), MapReduceOp(kern, n_elem=2)):
                with pytest.raises(GuestIndexError):
                    jit.delite.run(op, xs, [1.0, 2.0])
                # Like the guest library's loops, a longer one is cut.
                assert jit.delite.run(op, xs, xs + [9.0]) == \
                    jit.delite.run(op, xs, xs)

    def test_host_kernel_index_error_is_not_a_guest_error(self, jit):
        kernel = Kernel.from_host(lambda x: [][int(x)], 1)
        with pytest.raises(IndexError):
            jit.delite.run(MapOp(kernel), [0.0])

    def test_dropped_vm_is_collected_after_its_kernels_ran(self):
        from repro.apps import load_app
        from repro.optiml import load_optiml
        from repro.optiml.reference import names_data, namescore_fused

        jit = Lancet()
        load_optiml(jit)
        load_app(jit, "namescore", module="Namescore")
        names = names_data(40)
        cf = jit.vm.call("Namescore", "makeCompiled", [names])
        assert cf(0) == namescore_fused(names)
        assert jit.delite.chunk_fallbacks == 0
        (op,) = [s.args[0] for b in cf.ir.blocks.values()
                 for s in b.stmts if s.op == "delite"]
        assert op.kernel._chunks[(True, 1, True)][1] is not None
        ref = weakref.ref(jit)
        del jit, cf, op
        gc.collect()
        assert ref() is None
