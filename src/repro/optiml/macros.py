"""OptiML accelerator macros (paper Fig. 8).

Each macro intercepts a bulk operator of the guest OptiML library during
Lancet compilation and replaces it with a Delite parallel op::

    object OptiMLMacros extends ClassMacros {
      def sum(...) = new DeliteOpMapReduce[Int,DV] { ... map = x => blockl(x) }
    }

User-closure operators (``vmap``/``vzip``/``mapArr``/``reduceSum``/
``zipWithIndex``) compile the closure into a :class:`Kernel` via ``funR``-
style staging (the closure must be static — otherwise the macro declines
and the library implementation is inlined instead). Fixed patterns
(``nearest2d`` etc.) map to tuned builtin ops, as Delite ships tuned
pattern implementations.
"""

from __future__ import annotations

from repro.absint.absval import Static
from repro.delite import ops as dops
from repro.delite.kernels import Kernel
from repro.errors import MaterializeError
from repro.lms.ir import Effect
from repro.macros.api import MacroContext  # noqa: F401 (doc reference)
from repro.optiml import OPTIML_MODULE
from repro.runtime.objects import Obj, new_instance


def _emit_delite(ctx, op, arg_reps):
    for rep in arg_reps:
        ctx.escape(rep)   # op inputs become visible to residual code
    return ctx.emit("delite", (op,) + tuple(arg_reps), effect=Effect.ALLOC,
                    absval=None)


def _static_closure(ctx, rep):
    """Materialize a closure argument if it is compile-time static."""
    try:
        closure = ctx.eval_m(rep)
    except MaterializeError:
        return None
    return closure if isinstance(closure, Obj) else None


def _kernel_for(ctx, closure_rep):
    """The kernel for a static closure argument, memoized per VM."""
    closure = _static_closure(ctx, closure_rep)
    if closure is None:
        return None
    kernels = ctx.vm.delite.kernels
    hit = kernels.get(id(closure))
    if hit is None:
        hit = Kernel.from_closure(ctx.vm.jit, closure)
        kernels[id(closure)] = hit
    return hit


# -- user-closure operators ---------------------------------------------------

def vmap(ctx, recv, args):
    kernel = _kernel_for(ctx, args[1])
    if kernel is None:
        return None                      # fall back to the library loop
    return _emit_delite(ctx, dops.MapOp(kernel), [args[0]])


def vzip(ctx, recv, args):
    kernel = _kernel_for(ctx, args[2])
    if kernel is None:
        return None
    return _emit_delite(ctx, dops.ZipMapOp(kernel), [args[0], args[1]])


def map_arr(ctx, recv, args):
    kernel = _kernel_for(ctx, args[1])
    if kernel is None:
        return None
    return _emit_delite(ctx, dops.MapOp(kernel), [args[0]])


def reduce_sum(ctx, recv, args):
    return _emit_delite(ctx, dops.ReduceOp(None), [args[0]])


def vsum(ctx, recv, args):
    return _emit_delite(ctx, dops.VSUM, [args[0]])


def dot(ctx, recv, args):
    return _emit_delite(ctx, dops.DOT, [args[0], args[1]])


def zip_with_index(ctx, recv, args):
    vm = ctx.vm
    pair_cls = vm.linker.classes.get("Pair")

    def make_pair(x, i):
        p = new_instance(pair_cls)
        p.fields["fst"] = x
        p.fields["snd"] = i
        return p

    return _emit_delite(ctx, dops.ZipWithIndexOp(pair_factory=make_pair),
                        [args[0]])


# -- fixed patterns --------------------------------------------------------------

def sum_range(ctx, recv, args):
    """The paper's Fig. 8 macro::

        def sum(...)(block) = new DeliteOpMapReduce { map = x => blockl(x) }
    """
    kernel = _kernel_for(ctx, args[2])
    if kernel is None:
        return None
    return _emit_delite(ctx, dops.RangeMapReduceOp(kernel),
                        [args[0], args[1]])


def nearest2d(ctx, recv, args):
    return _emit_delite(ctx, dops.NEAREST_2D, args)


def cluster_sums2d(ctx, recv, args):
    # Returns [sx, sy, cnt]; the builtin produces a stacked (3, k) array,
    # which guest indexing handles row-wise.
    return _emit_delite(ctx, dops.CLUSTER_SUMS_2D,
                        [args[0], args[1], args[2], args[3]])


def mat_vec_cols(ctx, recv, args):
    cols_av = ctx.eval_abs(args[0])
    if not (isinstance(cols_av, Static) and isinstance(cols_av.obj, list)):
        return None                      # need the column count statically
    d = len(cols_av.obj)
    col_reps = [ctx.lift(c) for c in cols_av.obj]
    return _emit_delite(ctx, dops.mat_vec_cols(d), col_reps + [args[1]])


def sigmoid_v(ctx, recv, args):
    return _emit_delite(ctx, dops.SIGMOID, [args[0]])


def vsub(ctx, recv, args):
    return _emit_delite(ctx, dops.VSUB, [args[0], args[1]])


def weighted_col_sums(ctx, recv, args):
    cols_av = ctx.eval_abs(args[0])
    if not (isinstance(cols_av, Static) and isinstance(cols_av.obj, list)):
        return None
    d = len(cols_av.obj)
    col_reps = [ctx.lift(c) for c in cols_av.obj]
    return _emit_delite(ctx, dops.weighted_col_sums(d),
                        col_reps + [args[1]])


def vadd_arr(ctx, recv, args):
    return _emit_delite(ctx, dops.VADD, [args[0], args[1]])


def vscale_arr(ctx, recv, args):
    return _emit_delite(ctx, dops.VSCALE, [args[0], args[1]])


def row_sums(ctx, recv, args):
    return _emit_delite(ctx, dops.ROW_SUMS, [args[0], args[1], args[2]])


# -- virtual-method macros on the OO layer (paper Fig. 8's
#    `def sum(self: Rep[OptiMLCompanion], ...)`) -------------------------------

def dv_sum(ctx, recv, args):
    return _emit_delite(ctx, dops.VSUM, [ctx.get_field(recv, "data")])


def dv_dot(ctx, recv, args):
    return _emit_delite(ctx, dops.DOT, [ctx.get_field(recv, "data"),
                                        ctx.get_field(args[0], "data")])


_MACROS = {
    "vmap": vmap,
    "sumRange": sum_range,
    "vzip": vzip,
    "mapArr": map_arr,
    "reduceSum": reduce_sum,
    "vsum": vsum,
    "dot": dot,
    "zipWithIndex": zip_with_index,
    "nearest2d": nearest2d,
    "clusterSums2d": cluster_sums2d,
    "matVecCols": mat_vec_cols,
    "sigmoidV": sigmoid_v,
    "vsub": vsub,
    "weightedColSums": weighted_col_sums,
    "vaddArr": vadd_arr,
    "vscaleArr": vscale_arr,
    "rowSums": row_sums,
}

# Virtual macros, keyed by guest class (registry walks superclasses).
_VIRTUAL_MACROS = {
    ("DenseVector", "sum"): dv_sum,
    ("DenseVector", "dot"): dv_dot,
}


def install_optiml_macros(jit):
    """Install accelerator macros for the OptiML library
    (``Lancet.install(classOf[OptiMLCompanion], OptiMLMacros)``)."""
    for name, fn in _MACROS.items():
        jit.install_macro(OPTIML_MODULE, name, fn)
    for (cls, name), fn in _VIRTUAL_MACROS.items():
        jit.install_macro(cls, name, fn)
