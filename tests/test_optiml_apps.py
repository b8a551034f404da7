"""End-to-end OptiML applications (Table 2): all four implementation
tiers must agree — interpreted library, Lancet-Delite, standalone Delite,
hand-fused numpy ("C++")."""

import numpy as np
import pytest

from repro import Lancet
from repro.apps import load_app
from repro.delite.runtime import DeliteRuntime
from repro.optiml import load_optiml
from repro.optiml.reference import (kmeans_cpp, kmeans_data, kmeans_delite,
                                    logreg_cpp, logreg_data, logreg_delite,
                                    names_data, namescore_fused,
                                    namescore_python)


@pytest.fixture
def jit():
    j = Lancet()
    load_optiml(j)
    return j


class TestKmeans:
    N, K, ITERS = 400, 4, 3

    def test_all_tiers_agree(self, jit):
        px, py = kmeans_data(self.N, self.K)
        load_app(jit, "kmeans", module="Kmeans")
        lib = jit.vm.call("Kmeans", "run", [px, py, self.K, self.ITERS])
        cpp_cx, cpp_cy = kmeans_cpp(px, py, self.K, self.ITERS)
        cf = jit.vm.call("Kmeans", "makeCompiled",
                         [px, py, self.K, self.ITERS])
        ld = cf(0)
        rt = DeliteRuntime()
        d_cx, d_cy = kmeans_delite(rt, px, py, self.K, self.ITERS)
        assert np.allclose(lib[0], cpp_cx) and np.allclose(lib[1], cpp_cy)
        assert np.allclose(ld[0], cpp_cx) and np.allclose(ld[1], cpp_cy)
        assert np.allclose(d_cx, cpp_cx) and np.allclose(d_cy, cpp_cy)

    def test_compiled_uses_delite_ops(self, jit):
        px, py = kmeans_data(100, 2)
        load_app(jit, "kmeans", module="Kmeans")
        cf = jit.vm.call("Kmeans", "makeCompiled", [px, py, 2, 2])
        assert "_drun" in cf.source
        jit.delite.reset_clock()
        cf(0)
        assert jit.delite.ops_run == 4        # 2 iters × (nearest + sums)

    def test_smp_backend_matches(self, jit):
        px, py = kmeans_data(300, 3)
        load_app(jit, "kmeans", module="Kmeans")
        cf = jit.vm.call("Kmeans", "makeCompiled", [px, py, 3, 3])
        jit.delite.configure("seq")
        seq = cf(0)
        jit.delite.configure("smp", cores=4)
        smp = cf(0)
        assert np.allclose(seq[0], smp[0]) and np.allclose(seq[1], smp[1])
        jit.delite.configure("gpu")
        gpu = cf(0)
        assert np.allclose(seq[0], gpu[0])


class TestLogreg:
    def test_all_tiers_agree(self, jit):
        cols, y = logreg_data(300, d=3)
        load_app(jit, "logreg", module="Logreg")
        lib = jit.vm.call("Logreg", "run", [cols, y, 4, 0.1])
        cpp = logreg_cpp(cols, y, 4, 0.1)
        cf = jit.vm.call("Logreg", "makeCompiled", [cols, y, 4, 0.1])
        ld = cf(0)
        rt = DeliteRuntime()
        dl = logreg_delite(rt, cols, y, 4, 0.1)
        assert np.allclose(lib, cpp)
        assert np.allclose(ld, cpp)
        assert np.allclose(dl, cpp)

    def test_macro_declines_on_dynamic_columns(self, jit):
        """compile_function gets cols as a dynamic argument: the macros
        cannot see the column count, so the library loops are inlined
        instead — still correct, just not accelerated."""
        cols, y = logreg_data(60, d=2)
        load_app(jit, "logreg", module="Logreg")
        cf = jit.compile_function("Logreg", "run")
        cpp = logreg_cpp(cols, y, 3, 0.1)
        assert np.allclose(cf(cols, y, 3, 0.1), cpp)


class TestNamescore:
    def test_all_tiers_agree(self, jit):
        names = names_data(500)
        load_app(jit, "namescore", module="Namescore")
        expected = namescore_python(names)
        assert namescore_fused(names) == expected
        lib = jit.vm.call("Namescore", "totalScore", [names])
        assert lib == expected
        cf = jit.vm.call("Namescore", "makeCompiled", [names])
        assert cf(0) == expected

    def test_fused_single_pass(self, jit):
        names = names_data(50)
        load_app(jit, "namescore", module="Namescore")
        cf = jit.vm.call("Namescore", "makeCompiled", [names])
        jit.delite.reset_clock()
        cf(0)
        assert jit.delite.ops_run == 1        # zipWithIndex+map+reduce fused

    def test_compiled_faster_than_interpreted_library(self, jit):
        import time
        names = names_data(3000)
        load_app(jit, "namescore", module="Namescore")
        t0 = time.perf_counter()
        expected = jit.vm.call("Namescore", "totalScore", [names])
        t_lib = time.perf_counter() - t0
        cf = jit.vm.call("Namescore", "makeCompiled", [names])
        cf(0)
        t0 = time.perf_counter()
        got = cf(0)
        t_ld = time.perf_counter() - t0
        assert got == expected
        assert t_ld < t_lib / 2      # paper: ~2x; ours is far larger

    def test_vm_is_freed_after_compiling(self):
        """Kernels are memoized per VM, not process-wide: once the VM is
        dropped, nothing keeps it (or its compiled kernels) alive."""
        import gc
        import weakref
        j = Lancet()
        load_optiml(j)
        load_app(j, "namescore", module="Namescore")
        cf = j.vm.call("Namescore", "makeCompiled", [names_data(20)])
        cf(0)
        assert j.delite.kernels
        ref = weakref.ref(j)
        del j, cf
        gc.collect()
        assert ref() is None
