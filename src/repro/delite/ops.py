"""Delite parallel-pattern descriptors.

Ops are immutable descriptors baked into compiled code (or built directly
for standalone-Delite use). Inputs split into *element* inputs (arrays
traversed in parallel, chunkable) and *uniform* inputs (broadcast values:
centroid tables, weight vectors, scalars).

``DeliteOpMapReduce`` from the paper's Fig. 8 corresponds to
:class:`MapReduceOp` here.
"""

from __future__ import annotations

import numpy as np


class DeliteOp:
    """Base descriptor. ``n_elem`` element inputs come first in the call's
    argument list; the rest are uniforms.

    Two declared facts feed the parallel-safety analysis
    (:mod:`repro.analysis.parsafe`): ``scalar_result`` marks ops whose
    value is an identity-free scalar (safe to CSE/hoist when the kernel
    is proven write-free — array results carry identity and stay
    pinned), and ``total`` marks ops that cannot raise a guest error for
    well-typed inputs. Builtins declare ``total`` by contract (they are
    tuned, vetted patterns — the Delite stance); guest-kernel ops leave
    it False and must prove totality from their kernel IR.

    ``indexed`` marks ops whose kernel takes the element's global index
    as its last argument."""

    name = "op"
    n_elem = 1
    gpu_capable = True
    scalar_result = False
    total = False
    indexed = False

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.name)


class MapOp(DeliteOp):
    """out[i] = kernel(xs[i])"""

    def __init__(self, kernel, name=None):
        self.kernel = kernel
        self.name = name or "map:%s" % kernel.name
        self.n_elem = 1
        self.gpu_capable = kernel.vectorized


class ZipMapOp(DeliteOp):
    """out[i] = kernel(xs[i], ys[i])"""

    def __init__(self, kernel, name=None):
        self.kernel = kernel
        self.name = name or "zip:%s" % kernel.name
        self.n_elem = 2
        self.gpu_capable = kernel.vectorized


class MapIndexedOp(DeliteOp):
    """out[i] = kernel(xs[i], i) — a fused map-over-zipWithIndex (the SoA
    form: no pair objects are ever allocated)."""

    indexed = True

    def __init__(self, kernel, name=None):
        self.kernel = kernel
        self.name = name or "mapidx:%s" % kernel.name
        self.n_elem = 1
        self.gpu_capable = kernel.vectorized


class ReduceOp(DeliteOp):
    """Fold with a binary kernel (or '+' builtin) over one array."""

    scalar_result = True

    def __init__(self, kernel=None, zero=0, name=None):
        self.kernel = kernel           # None -> sum
        self.zero = zero
        self.name = name or ("sum" if kernel is None
                             else "reduce:%s" % kernel.name)
        self.n_elem = 1
        self.gpu_capable = kernel is None


class MapReduceOp(DeliteOp):
    """sum_i kernel(xs_0[i], ..) — vertical fusion of Map/ZipMap into a
    Reduce (paper Fig. 8: DeliteOpMapReduce)."""

    scalar_result = True

    def __init__(self, map_kernel, n_elem=1, indexed=False, name=None):
        self.kernel = map_kernel
        self.n_elem = n_elem
        self.indexed = indexed
        self.name = name or "mapreduce:%s" % map_kernel.name
        self.gpu_capable = map_kernel.vectorized


class ZipWithIndexOp(DeliteOp):
    """Marker op producing a (values, indices) SoA pair; fusion eliminates
    it; unfused execution materializes index pairs (AoS) for fidelity with
    the library semantics."""

    def __init__(self, pair_factory=None):
        self.name = "zipWithIndex"
        self.n_elem = 1
        self.gpu_capable = False
        self.pair_factory = pair_factory   # makes guest Pair objects


class ElementwiseBuiltin(DeliteOp):
    """A fixed high-performance elementwise pattern with both scalar and
    numpy implementations (how Delite ships tuned patterns).

    ``numpy_fn(elem_arrays, uniforms) -> array``;
    ``scalar_fn(elem_values, uniforms) -> value``.
    """

    total = True         # builtin contract: no guest error possible

    def __init__(self, name, n_elem, numpy_fn, scalar_fn):
        self.name = name
        self.n_elem = n_elem
        self.numpy_fn = numpy_fn
        self.scalar_fn = scalar_fn
        self.gpu_capable = True


class ReduceBuiltin(DeliteOp):
    """A fixed reduction pattern: per-chunk ``numpy_fn`` then ``combine``.

    ``numpy_fn(elem_arrays, uniforms) -> partial``;
    ``combine(a, b) -> partial``.
    """

    total = True         # builtin contract: no guest error possible

    def __init__(self, name, n_elem, numpy_fn, combine, finalize=None,
                 scalar_result=False):
        self.name = name
        self.n_elem = n_elem
        self.numpy_fn = numpy_fn
        self.combine = combine
        self.finalize = finalize
        self.scalar_result = scalar_result
        self.gpu_capable = True


# ---------------------------------------------------------------------------
# The builtin patterns used by OptiML (k-means / logistic regression)
# ---------------------------------------------------------------------------

def _nearest2d_np(elems, uniforms):
    px, py = elems
    cx, cy = uniforms
    cx = np.asarray(cx, dtype=np.float64)
    cy = np.asarray(cy, dtype=np.float64)
    dx = px[:, None] - cx[None, :]
    dy = py[:, None] - cy[None, :]
    return np.argmin(dx * dx + dy * dy, axis=1)


def _nearest2d_scalar(elems, uniforms):
    x, y = elems
    cx, cy = uniforms
    best, best_d = 0, float("inf")
    for j in range(len(cx)):
        d = (x - cx[j]) ** 2 + (y - cy[j]) ** 2
        if d < best_d:
            best, best_d = j, d
    return best


NEAREST_2D = ElementwiseBuiltin("nearest2d", 2, _nearest2d_np,
                                _nearest2d_scalar)


def _cluster_sums2d_np(elems, uniforms):
    px, py, assign = elems
    (k,) = uniforms
    assign = np.asarray(assign, dtype=np.int64)
    sx = np.bincount(assign, weights=px, minlength=k)
    sy = np.bincount(assign, weights=py, minlength=k)
    cnt = np.bincount(assign, minlength=k).astype(np.float64)
    return np.stack([sx, sy, cnt])


CLUSTER_SUMS_2D = ReduceBuiltin("clusterSums2d", 3, _cluster_sums2d_np,
                                combine=lambda a, b: a + b)


def _mat_vec_cols_np(elems, uniforms):
    (w,) = uniforms
    out = elems[0] * w[0]
    for j in range(1, len(elems)):
        out = out + elems[j] * w[j]
    return out


def mat_vec_cols(d):
    """X·w with X stored column-wise (SoA): d element inputs."""
    return ElementwiseBuiltin(
        "matVecCols/%d" % d, d, _mat_vec_cols_np,
        scalar_fn=lambda elems, uniforms: sum(
            e * wj for e, wj in zip(elems, uniforms[0])))


def _sigmoid_np(elems, uniforms):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-elems[0]))


SIGMOID = ElementwiseBuiltin("sigmoid", 1, _sigmoid_np, _sigmoid_np)

VSUB = ElementwiseBuiltin(
    "vsub", 2,
    lambda elems, uniforms: elems[0] - elems[1],
    lambda elems, uniforms: elems[0] - elems[1])

VADD = ElementwiseBuiltin(
    "vadd", 2,
    lambda elems, uniforms: elems[0] + elems[1],
    lambda elems, uniforms: elems[0] + elems[1])

VSCALE = ElementwiseBuiltin(
    "vscale", 1,
    lambda elems, uniforms: elems[0] * uniforms[0],
    lambda elems, uniforms: elems[0] * uniforms[0])


def _row_sums_np(elems, uniforms):
    (data,) = elems
    rows, cols = uniforms
    return data.reshape(int(rows), int(cols)).sum(axis=0)


class RowSumsOp(ReduceBuiltin):
    """sumRows over a row-major flat matrix (paper Fig. 8's sumRows)."""

    def __init__(self):
        super().__init__("rowSums", 1, _row_sums_np,
                         combine=lambda a, b: a + b)

    # Chunking must split on row boundaries; keep it whole-array.
    gpu_capable = True


ROW_SUMS = RowSumsOp()


def _weighted_col_sums_np(elems, uniforms):
    err = elems[-1]
    cols = elems[:-1]
    return np.array([float(np.dot(c, err)) for c in cols])


def weighted_col_sums(d):
    """gradient_j = sum_i X[i,j] * err[i]: d+1 element inputs."""
    return ReduceBuiltin("weightedColSums/%d" % d, d + 1,
                         _weighted_col_sums_np,
                         combine=lambda a, b: a + b)


DOT = ReduceBuiltin(
    "dot", 2,
    lambda elems, uniforms: float(np.dot(elems[0], elems[1])),
    combine=lambda a, b: a + b, scalar_result=True)

VSUM = ReduceBuiltin(
    "vsum", 1,
    lambda elems, uniforms: float(np.sum(elems[0])),
    combine=lambda a, b: a + b, scalar_result=True)


class RangeMapReduceOp(DeliteOp):
    """sum_{i=start..end} kernel(i) — the paper's Fig. 8
    ``DeliteOpMapReduce`` over an index range. The range arrives as two
    uniform args; chunking splits the index space."""

    scalar_result = True
    indexed = True

    def __init__(self, kernel, name=None):
        self.kernel = kernel
        self.n_elem = 0
        self.name = name or "rangesum:%s" % kernel.name
        self.gpu_capable = kernel.vectorized


#: Ops that apply a guest kernel to each element.
KERNEL_OPS = (MapOp, ZipMapOp, MapIndexedOp, MapReduceOp, RangeMapReduceOp)
