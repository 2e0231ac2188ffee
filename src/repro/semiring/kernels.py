"""Specialized segment-reduce / scatter kernels for the vectorized
backend, selected once per monoid.

:meth:`Monoid.segment_reduce` and :meth:`Monoid.scatter` dispatch one
``ufunc.at`` call per reduction — correct, but ``ufunc.at`` is an
order-of-magnitude slower than ``bincount``/``reduceat``, and the
reference methods re-derive *which* fast path applies on every call.
This module resolves that choice exactly once per monoid: a
:class:`KernelSet` binds the specialized callables at construction
(taichi-style — compile the dispatch, then run it), and
:func:`kernel_set` memoizes one set per live monoid. The hot loops of
:mod:`repro.oei.executor` and :mod:`repro.graphblas.ops` then call a
pre-selected closure with zero per-call branching.

The specializations are **bit-identical** to the reference methods for
the monoids where the batched grouping provably folds to the same
floats:

- **PLUS** — ``np.bincount(ids, weights)`` is a strict in-order left fold
  from 0.0, exactly like ``np.add.at`` into an identity-filled output.
  (``np.add.reduceat`` is *not* used: it pairwise-sums, which changes the
  low-order bits of long segments.)
- **MIN / MAX** — associative up to ties: any grouping yields the same
  value, except that numpy's SIMD ``reduceat`` settles a ``0.0``/``-0.0``
  tie (and which NaN survives) differently from the scalar fold of
  ``ufunc.at``. Folding from the ``±inf`` identity is the identity map
  on the first element. ``ufunc.reduceat`` over contiguous sorted
  segments, with empty segments masked back to the identity
  (``reduceat`` would otherwise return a neighbour's value for a
  zero-length slice); the rare segments (or scatter targets) whose
  batched result is zero or NaN are folded again, in order, through the
  reference ``ufunc.at``.
- **LOR** — normalized to ``{0, 1}`` and reduced as MAX, mirroring the
  reference's own normalization.

Everything else (LAND, exotic monoids without a vectorizable ufunc)
delegates to the reference implementation — including its quirk of
returning raw, unnormalized values for single-element boolean segments.

The PLUS *scatter* (merging into a pre-populated output) stays on
``np.add.at``: grouping per index and adding one partial sum per target
would re-associate ``((out + a) + b)`` into ``(out + (a + b))``, which is
not the same float. MIN/MAX/LOR scatters group safely. The SpMM of the
GCN pipeline (:func:`~repro.graphblas.ops.mxm_dense`) needs no kernel of
its own: it runs :func:`segment_reduce` once per feature column.

:class:`SlotMajorSpMV` is the one prepared operator: the PLUS-TIMES
matrix-vector product of the Krylov solvers and PageRank, laid out once
so that every call folds independent rows side by side instead of one
row after another, with the same per-row fold as ``bincount``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple, Union

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.semiring.monoids import Monoid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix

#: Recognised kernel selectors for the executor / GraphBLAS entry points.
KERNELS = ("reference", "batched")


def check_kernel(kernel: str) -> None:
    """Validate a kernel selector; raises :class:`ConfigError` on a miss."""
    if kernel not in KERNELS:
        raise ConfigError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )


def _tied(reduced: np.ndarray) -> np.ndarray:
    """Where a batched MIN/MAX result may differ in bits from the
    reference fold: a zero (0.0 and -0.0 compare equal, and SIMD
    ``reduceat`` keeps either) or a NaN (SIMD ``reduceat`` returns a
    canonical NaN, the scalar fold the first NaN it meets)."""
    return (reduced == 0) | np.isnan(reduced)


def _reduceat_sorted(
    ufunc: np.ufunc,
    values: np.ndarray,
    segment_ids: np.ndarray,
    n_segments: int,
    identity: float,
    dtype,
    refold_ties: bool,
) -> np.ndarray:
    """``ufunc`` segment reduction over *sorted* contiguous segments.

    With ``refold_ties``, segments that reduce to zero or NaN are folded
    again in order through ``ufunc.at``, which picks the sign of a
    0.0/-0.0 tie (and which NaN survives) the way the reference does.
    """
    out = np.full(n_segments, identity, dtype=dtype)
    counts = np.bincount(segment_ids, minlength=n_segments)
    nonempty = counts > 0
    if not nonempty.any():
        return out
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    with np.errstate(invalid="ignore"):
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
        if refold_ties:
            tied = _tied(out)
            if tied.any():
                out[tied] = identity
                redo = tied[segment_ids]
                ufunc.at(out, segment_ids[redo], values[redo])
    return out


# ----------------------------------------------------------------------
# Per-monoid kernel construction
# ----------------------------------------------------------------------
def _plus_segment(monoid: Monoid) -> Callable:
    def kernel(values, segment_ids, n_segments):
        values = np.asarray(values)
        dtype = np.result_type(values, float)
        if values.size == 0:
            return np.full(n_segments, monoid.identity, dtype=dtype)
        # bincount is a strict in-order left fold from 0.0 == identity.
        return np.bincount(
            segment_ids, weights=values, minlength=n_segments
        ).astype(dtype, copy=False)

    return kernel


def _minmax_segment(monoid: Monoid, ufunc: np.ufunc, normalize: bool) -> Callable:
    def kernel(values, segment_ids, n_segments):
        values = np.asarray(values)
        dtype = np.result_type(values, float)
        if values.size == 0:
            return np.full(n_segments, monoid.identity, dtype=dtype)
        vals = (
            (values != 0).astype(dtype)
            if normalize
            else values.astype(dtype, copy=False)
        )
        # Normalized values are 0.0 or 1.0, so only raw ones can tie.
        return _reduceat_sorted(
            ufunc, vals, segment_ids, n_segments, monoid.identity, dtype,
            refold_ties=not normalize,
        )

    return kernel


def _minmax_scatter(monoid: Monoid, ufunc: np.ufunc, normalize: bool) -> Callable:
    def kernel(out, indices, values):
        values = np.asarray(values)
        if values.size == 0:
            return
        vals = (values != 0).astype(out.dtype) if normalize else values
        indices = np.asarray(indices)
        order = np.argsort(indices, kind="stable")
        ids = indices[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        targets = ids[starts]
        before = out[targets]
        with np.errstate(invalid="ignore"):
            merged = ufunc(before, ufunc.reduceat(vals[order], starts))
            out[targets] = merged
            if normalize:
                return
            tied = _tied(merged)
            if tied.any():
                # Settle ties as the reference's in-order fold does,
                # from the targets' previous values.
                out[targets[tied]] = before[tied]
                redo = np.zeros(out.shape[0], dtype=bool)
                redo[targets[tied]] = True
                redo = redo[indices]
                ufunc.at(out, indices[redo], vals[redo])

    return kernel


class KernelSet:
    """The specialized kernels of one monoid, selected at construction.

    ``segment_reduce(values, segment_ids, n_segments)`` requires sorted
    ascending ``segment_ids`` (the CSC/CSR slice layout every caller
    already has). ``scatter(out, indices, values)`` merges in place and
    accepts any order. Both are bit-identical to the reference
    :class:`Monoid` methods.
    """

    __slots__ = ("monoid", "segment_reduce", "scatter")

    def __init__(self, monoid: Monoid) -> None:
        self.monoid = monoid
        ufunc = monoid.op.ufunc
        if ufunc is np.add:
            self.segment_reduce = _plus_segment(monoid)
            # In-order fold into a *pre-populated* out is part of the
            # exactness contract — grouping would re-associate it.
            self.scatter = monoid.scatter
        elif ufunc is np.logical_or:
            self.segment_reduce = _minmax_segment(monoid, np.maximum, True)
            self.scatter = _minmax_scatter(monoid, np.maximum, True)
        elif ufunc is np.minimum or ufunc is np.maximum:
            self.segment_reduce = _minmax_segment(monoid, ufunc, False)
            self.scatter = _minmax_scatter(monoid, ufunc, False)
        else:
            self.segment_reduce = monoid.segment_reduce
            self.scatter = monoid.scatter


#: One KernelSet per monoid *value* — frozen dataclasses hash by
#: (op, identity), so equal monoids share a set. The population is the
#: six singletons of :data:`~repro.semiring.monoids.MONOIDS` plus any
#: value-distinct test monoids: bounded, so a plain dict suffices.
_KERNEL_SETS: Dict[Monoid, KernelSet] = {}


def kernel_set(monoid: Monoid) -> KernelSet:
    """The memoized :class:`KernelSet` of one monoid — selection happens
    on the first request, every later call is a dictionary hit."""
    ks = _KERNEL_SETS.get(monoid)
    if ks is None:
        ks = KernelSet(monoid)
        _KERNEL_SETS[monoid] = ks
    return ks


def segment_reduce(
    monoid: Monoid,
    values: np.ndarray,
    segment_ids: np.ndarray,
    n_segments: int,
) -> np.ndarray:
    """Batched, bit-identical equivalent of ``monoid.segment_reduce``.

    ``segment_ids`` must be sorted ascending (the CSC/CSR slice layout
    every caller already has); unsupported monoids fall back to the
    reference implementation, which accepts any order.
    """
    return kernel_set(monoid).segment_reduce(values, segment_ids, n_segments)


def scatter(
    monoid: Monoid,
    out: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
) -> None:
    """Batched, bit-identical equivalent of ``monoid.scatter``.

    Only grouping-safe monoids (MIN/MAX/LOR) take the sorted-reduceat
    path; PLUS and everything else delegate to the reference scatter,
    whose in-order fold into ``out`` is part of the exactness contract.
    """
    kernel_set(monoid).scatter(out, indices, values)


# ----------------------------------------------------------------------
# Prepared PLUS-TIMES matrix-vector product
# ----------------------------------------------------------------------
#: Fewest rows a slot must hold to be folded by its own vectorized add.
#: One numpy call costs about 1 us; folding an entry beside other rows
#: instead of after its own row's previous entry saves about 3 ns, so
#: a slot pays for its call from about 300 rows.
_MIN_SLOT_ROWS = 256


def _slot_major(
    indptr: np.ndarray, rows: np.ndarray, degree: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay the entries of ``rows`` out slot-major: entry ``k`` of every
    row before entry ``k + 1`` of any, rows in the given order within a
    slot. ``degree`` (the entries of each of ``rows``) must not
    increase, so slot ``k`` holds a prefix of ``rows``.

    Returns the storage position of every laid-out entry, the rank in
    ``rows`` of its row, and the number of rows in each slot.
    """
    total = int(degree.sum())
    width = int(degree[0]) if degree.size else 0
    per_slot = rows.size - np.cumsum(np.bincount(degree, minlength=width + 1))[:width]
    slot_start = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(per_slot, out=slot_start[1:])
    rank = np.repeat(np.arange(rows.size, dtype=np.int64), degree)
    slot = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(degree) - degree, degree
    )
    dest = slot_start[slot] + rank
    positions = np.empty(total, dtype=np.int64)
    positions[dest] = np.repeat(indptr[rows], degree) + slot
    ranks = np.empty(total, dtype=np.int64)
    ranks[dest] = rank
    return positions, ranks, per_slot


class SlotMajorSpMV:
    """The PLUS-TIMES product of one matrix with dense vectors, prepared
    once: ``A @ x`` from a CSR, ``x @ A`` from a CSC, bitwise equal to
    ``mxv``/``vxm`` with ``MUL_ADD`` on a fully-present vector.

    Output ``i`` (a row of the CSR, a column of the CSC) is
    ``((0.0 + p0) + p1) + ...`` over the products of its stored entries
    in storage order: the fold of ``bincount``. ``bincount`` folds one
    row after another, so consecutive adds chain through memory. Here
    the rows are ranked by non-increasing degree, and the rows of degree
    at most ``T`` are stored slot-major: slot ``k`` (entry ``k`` of each
    row that has one) covers a prefix of those rows and folds with one
    vectorized ``y[:c_k] += p[slot k]``. ``T`` is the number of slots of
    the whole matrix holding at least :data:`_MIN_SLOT_ROWS` rows. The
    fewer than :data:`_MIN_SLOT_ROWS` rows of larger degree are stored
    slot-major among themselves and fold with one ``bincount``, so that
    its adds alternate between rows as well.

    Why this is exact: every output starts from +0.0 and takes its
    products in storage order, exactly as ``bincount`` does, and a
    round-to-nearest sum that starts from +0.0 is never -0.0. Products
    keep the operand order of the contraction they replace
    (``data * x`` for a CSR, ``x * data`` for a CSC). The one bit left
    open is which NaN survives where two NaNs of different payloads meet
    in one add or multiply: numpy's SIMD and scalar loops already keep
    different ones.

    The matrix is validated when the operator is built. A call checks
    only the length of ``x``: the gather then reads ``x`` without a
    per-index bounds check.
    """

    __slots__ = (
        "n_out", "n_in", "_row_major", "_gather", "_data", "_n_heavy",
        "_light_nnz", "_heavy_ranks", "_slots", "_unrank",
    )

    def __init__(self, compressed: Union["CSRMatrix", "CSCMatrix"]) -> None:
        compressed._validate()
        self.n_out, self.n_in = compressed.n_major, compressed.n_minor
        self._row_major = compressed._row_major
        indptr = compressed.indptr
        degree = np.diff(indptr)
        by_degree = np.argsort(-degree, kind="stable")
        degree = degree[by_degree]
        # Rows with degree > k, for every k: slot k's row count.
        deeper = self.n_out - np.cumsum(np.bincount(degree, minlength=1))
        slots = int(np.count_nonzero(deeper >= _MIN_SLOT_ROWS))
        heavy = int(np.count_nonzero(degree > slots))
        light, _, slot_rows = _slot_major(
            indptr, by_degree[heavy:], degree[heavy:]
        )
        heavy_at, self._heavy_ranks, _ = _slot_major(
            indptr, by_degree[:heavy], degree[:heavy]
        )
        at = np.concatenate((light, heavy_at))
        self._gather = compressed.indices[at]
        self._data = compressed.data[at]
        self._n_heavy = heavy
        self._light_nnz = light.size
        # (rows of slot k, its entries) as slices, for the call's views.
        ends = np.cumsum(slot_rows).tolist()
        self._slots = [
            (slice(0, end - start), slice(start, end))
            for start, end in zip([0] + ends[:-1], ends)
        ]
        self._unrank = np.empty(self.n_out, dtype=np.intp)
        self._unrank[by_degree] = np.arange(self.n_out, dtype=np.intp)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The product with ``x``, a fresh float64 array of length
        :attr:`n_out`."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_in,):
            raise ShapeError(
                f"vector shape {x.shape} does not match ({self.n_in},)"
            )
        p = x.take(self._gather, mode="wrap")
        if self._row_major:
            np.multiply(self._data, p, out=p)
        else:
            np.multiply(p, self._data, out=p)
        # Heavy rows come first in degree rank, light rows after.
        y = np.zeros(self.n_out)
        heavy = self._n_heavy
        if heavy:
            y[:heavy] = np.bincount(
                self._heavy_ranks, weights=p[self._light_nnz:], minlength=heavy
            )
        light = y[heavy:]
        # bincount folds inf - inf to NaN silently; so do the slots.
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, entries in self._slots:
                acc = light[rows]
                np.add(acc, p[entries], out=acc)
        return y.take(self._unrank)
