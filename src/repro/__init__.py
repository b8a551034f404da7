"""repro: a full reproduction of "Surgical Precision JIT Compilers"
(Rompf et al., PLDI 2014) — the Lancet JIT compiler framework — built in
Python on a from-scratch MiniJVM substrate.

Quick tour::

    from repro import Lancet

    jit = Lancet()
    jit.load('''
        def square(x) { return x * x; }
    ''')
    fast = jit.compile_function("Main", "square")
    assert fast(7) == 49
    print(fast.source)          # the generated code

See DESIGN.md for the system map and EXPERIMENTS.md for the paper's
tables reproduced on this substrate.
"""

from repro.compiler.compiled import CompiledFunction
from repro.compiler.options import CompileOptions
from repro.errors import (CompilationError, FreezeError, GuestError,
                          MaterializeError, NoAllocError, ReproError,
                          TaintError, UnrollError)
from repro.codecache import PersistentCodeCache
from repro.interp.interpreter import Interpreter
from repro.jit.api import Lancet
from repro.jit.cache import CodeCache, make_hot, make_jit
from repro.observability import CompileReport, Telemetry
from repro.pipeline import (PassManager, TieredFunction, TierPolicy,
                            tier_options)
from repro.server import CompileServer

__version__ = "0.1.0"

__all__ = [
    "Lancet", "Interpreter", "CompileOptions", "CompiledFunction",
    "CodeCache", "make_jit", "make_hot",
    "PersistentCodeCache", "CompileServer",
    "PassManager", "TieredFunction", "TierPolicy", "tier_options",
    "Telemetry", "CompileReport",
    "ReproError", "GuestError", "CompilationError", "FreezeError",
    "MaterializeError", "UnrollError", "NoAllocError", "TaintError",
    "__version__",
]
