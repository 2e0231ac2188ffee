"""GraphBLAS-style sparse vector.

Backed by a dense value array plus a presence mask. The workloads of
the paper operate on vectors that densify within a few iterations
(PageRank ranks, SSSP distances, ...), so dense backing gives correct
sparse *semantics* (absent entries exist only implicitly) at the memory
cost of the dimension, which is negligible at the scales simulated.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import ShapeError


class Vector:
    """A length-``size`` sparse vector with explicit presence.

    ``values[i]`` is meaningful only where ``present[i]``; absent
    entries behave as "no stored value" (e.g. they contribute nothing
    to a ``vxm``, regardless of the semiring identity).
    """

    def __init__(
        self,
        size: int,
        values: Optional[np.ndarray] = None,
        present: Optional[np.ndarray] = None,
    ) -> None:
        if size < 0:
            raise ShapeError(f"vector size must be non-negative, got {size}")
        self.size = int(size)
        if values is None:
            values = np.zeros(size, dtype=np.float64)
        else:
            values = np.array(values, dtype=np.float64, copy=True)
            if values.shape != (size,):
                raise ShapeError(f"values shape {values.shape} != ({size},)")
        if present is None:
            present = np.ones(size, dtype=bool)
        else:
            present = np.array(present, dtype=bool, copy=True)
            if present.shape != (size,):
                raise ShapeError(f"present shape {present.shape} != ({size},)")
        self.values = values
        self.present = present

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def dense(cls, size: int, fill: float = 0.0) -> "Vector":
        """A fully-present vector with a constant value."""
        return cls(size, np.full(size, float(fill)), np.ones(size, dtype=bool))

    @classmethod
    def adopt(cls, values: np.ndarray, present: np.ndarray) -> "Vector":
        """A vector that takes ``values`` (cast to float64 if it is not)
        and ``present`` as its own, without the constructor's copies:
        for fresh arrays no one else holds."""
        out = cls.__new__(cls)
        out.size = int(values.size)
        out.values = values.astype(np.float64, copy=False)
        out.present = present.astype(bool, copy=False)
        return out

    @classmethod
    def empty(cls, size: int) -> "Vector":
        """A vector with no stored entries."""
        return cls(size, np.zeros(size), np.zeros(size, dtype=bool))

    @classmethod
    def from_entries(
        cls, size: int, indices: Iterable[int], values: Iterable[float]
    ) -> "Vector":
        """A vector with entries only at ``indices``."""
        out = cls.empty(size)
        idx = np.asarray(list(indices), dtype=np.int64)
        vals = np.asarray(list(values), dtype=np.float64)
        if idx.shape != vals.shape:
            raise ShapeError("indices and values must have equal length")
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise IndexError("vector index out of range")
        out.values[idx] = vals
        out.present[idx] = True
        return out

    def dup(self) -> "Vector":
        """Deep copy."""
        return Vector(self.size, self.values, self.present)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        """Number of stored entries."""
        return int(np.count_nonzero(self.present))

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` of the stored entries."""
        idx = np.flatnonzero(self.present)
        return idx, self.values[idx]

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        """Materialize with ``fill`` in absent positions."""
        out = np.full(self.size, float(fill))
        out[self.present] = self.values[self.present]
        return out

    def get(self, i: int, default: float = None) -> float:
        """Stored value at ``i``, or ``default`` when absent."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range for size {self.size}")
        if not self.present[i]:
            if default is None:
                raise KeyError(f"no stored value at index {i}")
            return default
        return float(self.values[i])

    def set(self, i: int, value: float) -> None:
        """Store ``value`` at ``i``."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range for size {self.size}")
        self.values[i] = value
        self.present[i] = True

    def clear(self) -> None:
        """Remove all stored entries."""
        self.present[:] = False
        self.values[:] = 0.0

    def isclose(self, other: "Vector", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural and numeric equality within tolerance."""
        if self.size != other.size or not np.array_equal(self.present, other.present):
            return False
        mask = self.present
        return bool(
            np.allclose(
                self.values[mask], other.values[mask], rtol=rtol, atol=atol,
                equal_nan=True,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vector(size={self.size}, nvals={self.nvals})"
