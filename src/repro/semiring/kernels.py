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
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import ConfigError
from repro.semiring.monoids import Monoid

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
