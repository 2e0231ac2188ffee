"""Cross-iteration reuse residency analysis — the machinery of Table I.

Under OEI pairing, element ``(i, j)`` of the matrix is loaded when the
OS stage consumes column ``j`` (step ``j``) and reused when the IS
stage scatters row ``i`` (step ``i + 2``, the IS lag of Fig 8). Its
on-chip residency interval is therefore

    [j, max(j + 1, i + 2))

— elements above the diagonal (``j > i + 2``) are reused the moment
they arrive (eagerly-loaded IS data flowing to OS, Fig 9) and occupy
the buffer for a single step, while elements far below the diagonal
wait ``i + 2 - j`` steps. The occupancy at step ``s`` counts live
intervals; Table I reports its max and mean as a percentage of nnz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.formats.compressed import INDEX_BYTES, VALUE_BYTES
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.oei.schedule import IS_LAG
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ReuseStats:
    """Residency statistics of one matrix under the OEI dataflow."""

    nnz: int
    n_steps: int
    max_live: int
    avg_live: float
    series: np.ndarray  #: live elements at each step

    @property
    def max_pct(self) -> float:
        """Peak on-chip fraction — Table I's ``max (%)`` column."""
        return 100.0 * self.max_live / self.nnz if self.nnz else 0.0

    @property
    def avg_pct(self) -> float:
        """Mean on-chip fraction — Table I's ``avg (%)`` column."""
        return 100.0 * self.avg_live / self.nnz if self.nnz else 0.0

    def max_bytes(self, bytes_per_element: int = INDEX_BYTES + VALUE_BYTES) -> int:
        """Peak buffer demand of the reuse window, in bytes."""
        return self.max_live * bytes_per_element

    def avg_bytes(self, bytes_per_element: int = INDEX_BYTES + VALUE_BYTES) -> float:
        return self.avg_live * bytes_per_element


def reuse_footprint(
    matrix: Union[COOMatrix, CSCMatrix],
    subtensor_cols: int = 1,
    fusion_depth: int = 2,
) -> ReuseStats:
    """Compute the OEI residency profile of a matrix.

    ``subtensor_cols`` > 1 evaluates the footprint at sub-tensor
    granularity (steps process ``T`` columns / rows at once), which is
    what the hardware actually buffers.

    ``fusion_depth`` generalizes beyond the paper's pairwise fusion: a
    depth-``k`` chain alternates OS/IS stages, each lagging ``IS_LAG``
    steps behind the previous, so element ``(i, j)`` is last touched at
    ``max(j + 1, i + IS_LAG) + IS_LAG * (k - 2)``. Depth 2 is the
    paper's OEI; larger depths trade a longer residency window for
    fewer matrix streams (see ``bench_fusion_depth``).
    """
    check_positive("subtensor_cols", subtensor_cols)
    if fusion_depth < 2:
        raise ValueError(f"fusion_depth must be >= 2, got {fusion_depth}")
    if isinstance(matrix, CSCMatrix):
        rows, cols, _ = matrix.to_coo_arrays()
        shape = matrix.shape
    else:
        dedup = matrix.canonical()
        rows, cols, shape = dedup.rows, dedup.cols, dedup.shape
    nnz = rows.size
    extra_lag = IS_LAG * (fusion_depth - 2)
    n_steps_total = -(-max(shape) // subtensor_cols) + IS_LAG + extra_lag
    if nnz == 0:
        return ReuseStats(0, n_steps_total, 0, 0.0, np.zeros(n_steps_total, dtype=np.int64))

    load_step = cols // subtensor_cols
    reuse_step = rows // subtensor_cols + IS_LAG
    start = load_step
    stop = np.maximum(load_step + 1, reuse_step) + extra_lag

    diff = np.zeros(n_steps_total + 1, dtype=np.int64)
    np.add.at(diff, start, 1)
    np.add.at(diff, stop, -1)
    series = np.cumsum(diff[:-1])
    return ReuseStats(
        nnz=int(nnz),
        n_steps=n_steps_total,
        max_live=int(series.max()),
        avg_live=float(series.mean()),
        series=series,
    )


def window_entry_bytes(plan) -> float:
    """Bytes that ever *enter* a pair's CSR reuse window under the
    given :class:`~repro.arch.loaders.LoadPlan` — elements whose
    scatter step trails their load step.

    Every ``csr_reload`` byte the buffer can charge in one pair is a
    re-fetch of an evicted window element, and each element is evicted
    at most once, so this is a sound per-pair upper bound on reload
    traffic (used by :mod:`repro.analysis.bounds`).
    """
    entered = sum(c for counts in plan.enter_counts for c in counts.values())
    return float(entered) * plan.element_bytes


def window_peak_bytes(plan) -> float:
    """Peak bytes live in a pair's CSR reuse window assuming *no*
    eviction ever happens, from the plan's admission schedule alone.

    An element admitted at load step ``l`` with scatter step ``r`` is
    resident at every occupancy sample ``s`` with ``l <= s <= r``
    (:class:`~repro.arch.buffer.OnChipBuffer` samples after admission
    and before release). Eviction only shrinks residency, so the
    no-eviction series dominates the simulated live occupancy — the
    static buffer-peak bound of :mod:`repro.analysis.bounds` is this
    plus the prefetcher's slack-bounded CSR capacity.
    """
    diff = np.zeros(plan.n_steps + 2, dtype=np.int64)
    for l, counts in enumerate(plan.enter_counts):
        for r, c in counts.items():
            diff[l] += c
            diff[min(r + 1, plan.n_steps + 1)] -= c
    series = np.cumsum(diff[:-1])
    peak = int(series.max()) if series.size else 0
    return float(peak) * plan.element_bytes
