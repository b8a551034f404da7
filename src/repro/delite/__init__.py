"""A Delite-style heterogeneous parallel execution framework (paper 3.4).

The real Delite stages DSL programs into a parallel-pattern IR (DeliteOp*),
fuses ops, converts arrays-of-structs to structs-of-arrays, and generates
Scala/CUDA. This reproduction keeps the same architecture:

* :mod:`repro.delite.ops` — parallel-pattern descriptors (Map, ZipMap,
  Reduce, MapReduce, elementwise/reduce builtins);
* :mod:`repro.delite.kernels` — per-element kernels compiled from guest
  closures by Lancet, with a numpy *vectorizer* standing in for CUDA
  codegen, and chunk loops (one generated function per chunk, kernel
  body inlined) for the kernels it cannot vectorize;
* :mod:`repro.delite.fusion` — producer/consumer fusion over the staged IR
  plus zipWithIndex SoA elimination;
* :mod:`repro.delite.runtime` — execution backends: sequential, simulated
  multi-core SMP (chunked execution; wall-clock modeled as
  max-over-chunks + sync overhead, since the GIL precludes real thread
  scaling), and "GPU" (whole-array numpy + launch overhead).

See DESIGN.md ("Substitutions") for the fidelity argument.
"""

from repro.delite.kernels import Kernel
from repro.delite.ops import (MapOp, ZipMapOp, ReduceOp, MapReduceOp,
                              ZipWithIndexOp, ElementwiseBuiltin,
                              ReduceBuiltin)
from repro.delite.runtime import DeliteRuntime

__all__ = ["Kernel", "MapOp", "ZipMapOp", "ReduceOp", "MapReduceOp",
           "ZipWithIndexOp", "ElementwiseBuiltin", "ReduceBuiltin",
           "DeliteRuntime"]
