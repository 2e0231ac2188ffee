"""Per-pair load plans derived from real matrix structure.

The three data loaders of Fig 12 (CSC loader, e-wise vector loader,
CSR loader) act on *sub-tensors*; this module precomputes, from the
actual non-zero coordinates of the preprocessed matrix, everything the
per-step control loop needs:

- demand bytes per column sub-tensor (CSC loader),
- OS work per sub-tensor,
- IS scatter work per step (an element is scattered at
  ``max(col_subtensor, row_subtensor + IS_LAG)``),
- window-entry histograms per load step, keyed by scatter step (the
  buffer's admit schedule).

The eager CSR prefetcher's ``P(r)`` balance heuristic operates on the
aggregate: leftover bandwidth pulls the earliest outstanding column
bytes forward, which is exactly the effect of balanced row prefetching
on the traffic timeline.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.formats.coo import COOMatrix
from repro.oei.schedule import IS_LAG
from repro.preprocess.pipeline import PreprocessResult


@dataclass(frozen=True)
class LoadPlan:
    """Structure-derived schedule for one OEI pair."""

    n: int
    subtensor_cols: int
    n_subtensors: int
    n_steps: int
    total_nnz: int
    element_bytes: float           #: DRAM bytes per matrix element
    csc_bytes: np.ndarray          #: demand bytes per column sub-tensor
    os_nnz: np.ndarray             #: OS products per sub-tensor
    scatter_nnz: np.ndarray        #: IS products per step
    enter_counts: List[Dict[int, int]]  #: per load step: {scatter step: n}
    subtensor_width: np.ndarray    #: columns per sub-tensor

    @property
    def matrix_stream_bytes(self) -> float:
        """One full stream of the matrix in one orientation."""
        return float(self.total_nnz * self.element_bytes)

    @classmethod
    def from_matrix(
        cls,
        source: Union[COOMatrix, PreprocessResult],
        subtensor_cols: int,
        element_bytes: float = None,
    ) -> "LoadPlan":
        """Build the plan from a (preprocessed) matrix.

        ``element_bytes`` defaults to the per-element cost of the
        source's storage: blocked dual storage when the preprocessing
        built one (payload + half the block index per orientation),
        naive compressed otherwise.

        Plans are pure functions of the source's structure, so they are
        cached per live ``(source, subtensor_cols, element_bytes)`` —
        sweeps that revisit a matrix (the bench grid, autotuning, every
        backend comparison) build each plan once. Sources are treated as
        immutable, which every producer in this codebase honors; the
        cache entry dies with its source object.
        """
        key = (id(source), int(subtensor_cols), element_bytes)
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            return plan
        plan = cls._build(source, subtensor_cols, element_bytes)
        _PLAN_CACHE[key] = plan
        weakref.finalize(source, _PLAN_CACHE.pop, key, None)
        return plan

    @classmethod
    def _build(
        cls,
        source: Union[COOMatrix, PreprocessResult],
        subtensor_cols: int,
        element_bytes: float = None,
    ) -> "LoadPlan":
        if subtensor_cols <= 0:
            raise ConfigError(f"subtensor_cols must be positive, got {subtensor_cols}")
        if isinstance(source, PreprocessResult):
            coo = source.matrix
            if element_bytes is None:
                if source.blocked is not None:
                    blocked = source.blocked
                    element_bytes = (
                        blocked.payload_bytes() + blocked.index_bytes() / 2
                    ) / max(1, blocked.nnz)
                else:
                    element_bytes = source.dual.csr.storage_bytes() / max(
                        1, source.dual.nnz
                    )
        else:
            coo = source.canonical()
            if element_bytes is None:
                element_bytes = 12.0  # 4-byte coordinate + 8-byte value
        if coo.nrows != coo.ncols:
            raise ConfigError(f"OEI pairs need a square matrix, got {coo.shape}")

        n = coo.nrows
        t = subtensor_cols
        n_sub = max(1, -(-n // t))
        n_steps = n_sub + IS_LAG

        load_step = coo.cols // t
        scatter_step = np.maximum(load_step, coo.rows // t + IS_LAG)

        os_nnz = np.bincount(load_step, minlength=n_sub).astype(np.float64)
        scatter_nnz = np.bincount(scatter_step, minlength=n_steps).astype(np.float64)
        csc_bytes = os_nnz * element_bytes

        enter_counts: List[Dict[int, int]] = [dict() for _ in range(n_sub)]
        waits = scatter_step > load_step  # elements that occupy the window
        if waits.any():
            pairs = load_step[waits] * (n_steps + 1) + scatter_step[waits]
            uniq, counts = np.unique(pairs, return_counts=True)
            for key, count in zip(uniq, counts):
                l, r = divmod(int(key), n_steps + 1)
                enter_counts[l][r] = int(count)

        widths = np.full(n_sub, t, dtype=np.int64)
        widths[-1] = n - t * (n_sub - 1) if n % t else t
        if n == 0:
            widths = np.zeros(n_sub, dtype=np.int64)

        return cls(
            n=n,
            subtensor_cols=t,
            n_subtensors=n_sub,
            n_steps=n_steps,
            total_nnz=coo.nnz,
            element_bytes=float(element_bytes),
            csc_bytes=csc_bytes,
            os_nnz=os_nnz,
            scatter_nnz=scatter_nnz,
            enter_counts=enter_counts,
            subtensor_width=widths,
        )


#: Cross-run plan cache keyed on source identity (see
#: :meth:`LoadPlan.from_matrix`); entries are evicted by a weakref
#: finalizer when their source is collected.
_PLAN_CACHE: Dict[Tuple[int, int, Optional[float]], LoadPlan] = {}


class EagerPrefetcher:
    """The CSR loader's leftover-bandwidth prefetch (Fig 9 / Section
    IV-D2).

    Pulls outstanding column bytes of future sub-tensors forward when a
    step leaves bandwidth unused, bounded by the buffer's slack. The
    prefetched bytes stay resident (charged against the buffer) until
    the OS stage reaches their sub-tensor.
    """

    def __init__(self, plan: LoadPlan, enabled: bool, horizon: int = None) -> None:
        self._remaining = plan.csc_bytes.copy()
        self._prefetched = np.zeros(plan.n_subtensors)
        self._enabled = enabled
        self._horizon = plan.n_subtensors if horizon is None else horizon

    def demand(self, subtensor: int) -> float:
        """Demand bytes still outstanding for one sub-tensor, consumed
        by the CSC loader at its load step."""
        if not 0 <= subtensor < self._remaining.size:
            return 0.0
        out = float(self._remaining[subtensor])
        self._remaining[subtensor] = 0.0
        return out

    def release_at(self, subtensor: int) -> float:
        """Prefetched bytes whose sub-tensor the OS stage reached —
        they leave the prefetch residency pool now."""
        if not 0 <= subtensor < self._prefetched.size:
            return 0.0
        out = float(self._prefetched[subtensor])
        self._prefetched[subtensor] = 0.0
        return out

    def prefetch(self, current: int, budget_bytes: float, slack_bytes: float) -> float:
        """Pull future column bytes forward; returns bytes moved."""
        if not self._enabled or budget_bytes <= 0 or slack_bytes <= 0:
            return 0.0
        budget = min(budget_bytes, slack_bytes)
        moved = 0.0
        stop = min(self._remaining.size, current + 1 + self._horizon)
        for t in range(max(0, current + 1), stop):
            if budget <= 0:
                break
            take = min(budget, self._remaining[t])
            if take > 0:
                self._remaining[t] -= take
                self._prefetched[t] += take
                moved += take
                budget -= take
        return moved
