"""Shared machinery for the two compressed formats (CSR and CSC).

CSR and CSC are the same data structure with the roles of the two
dimensions swapped; :class:`_Compressed` implements everything once in
terms of a *major* dimension (rows for CSR, columns for CSC) and a
*minor* dimension.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.formats.convert import canonical_order

INDEX_BYTES = 4  # the paper assumes >= 4-byte coordinates (Section IV-E2)
VALUE_BYTES = 8  # 64-bit data type, as in the paper's evaluation (Section VI-C)


class _Compressed:
    """Common base of :class:`CSRMatrix` and :class:`CSCMatrix`.

    Attributes
    ----------
    indptr:
        ``n_major + 1`` offsets into ``indices``/``data``.
    indices:
        Minor-dimension coordinate of each stored entry, sorted within
        each major slice.
    data:
        Stored values, aligned with ``indices``.
    """

    #: True for CSR (major = rows), False for CSC (major = columns).
    _row_major: bool = True

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        nrows, ncols = shape
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"matrix shape must be non-negative, got {shape}")
        self.shape = (int(nrows), int(ncols))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        self._major_ids: Optional[np.ndarray] = None
        self._validate()

    @classmethod
    def from_coordinates(
        cls,
        shape: Tuple[int, int],
        major: np.ndarray,
        minor: np.ndarray,
        vals: np.ndarray,
    ):
        """Compress coordinates along this format's major dimension
        (rows for CSR). Input need not be sorted or deduplicated:
        duplicates are summed and explicit zeros kept
        (:func:`~repro.formats.convert.canonical_order`). Canonical
        input is neither sorted nor copied, and its major coordinates
        serve as :meth:`major_ids`."""
        n_major, n_minor = shape if cls._row_major else shape[::-1]
        major, minor, vals = canonical_order(n_major, n_minor, major, minor, vals)
        indptr = np.zeros(n_major + 1, dtype=np.int64)
        np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
        out = cls(shape, indptr, minor, vals)
        out._major_ids = major
        return out

    # ------------------------------------------------------------------
    # Dimension bookkeeping
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def n_major(self) -> int:
        """Length of the compressed dimension (rows for CSR)."""
        return self.shape[0] if self._row_major else self.shape[1]

    @property
    def n_minor(self) -> int:
        return self.shape[1] if self._row_major else self.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size != self.n_major + 1:
            raise FormatError(
                f"indptr must have length {self.n_major + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise FormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape or self.indices.ndim != 1:
            raise FormatError("indices and data must be 1-D arrays of equal length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_minor:
                raise FormatError("minor index out of range")

    # ------------------------------------------------------------------
    # Slice access
    # ------------------------------------------------------------------
    def major_slice(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(minor_indices, values)`` of major slice ``i``
        (row ``i`` for CSR, column ``i`` for CSC) as views."""
        if not 0 <= i < self.n_major:
            raise IndexError(f"slice {i} out of range for {self.n_major}")
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def major_nnz(self) -> np.ndarray:
        """Number of stored entries in each major slice."""
        return np.diff(self.indptr)

    def major_ids(self) -> np.ndarray:
        """Major coordinate of every stored entry (the row of each entry
        for CSR), ascending. Built once, on first use or by
        :meth:`from_coordinates`: the contraction kernels reuse it on
        every call, so treat it as read-only."""
        if self._major_ids is None:
            self._major_ids = np.repeat(
                np.arange(self.n_major, dtype=np.int64), self.major_nnz()
            )
        return self._major_ids

    def slice_bytes(self) -> np.ndarray:
        """Bytes occupied by each major slice: one coordinate plus one
        value per stored entry. This is the traffic unit of the
        Sparsepipe loaders."""
        return self.major_nnz() * (INDEX_BYTES + VALUE_BYTES)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand to ``(rows, cols, vals)`` coordinate arrays."""
        major = self.major_ids().copy()
        if self._row_major:
            return major, self.indices.copy(), self.data.copy()
        return self.indices.copy(), major, self.data.copy()

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self.to_coo_arrays()
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[rows, cols] = vals
        return out

    def storage_bytes(self) -> int:
        """Exact in-memory footprint: indptr + indices + data.

        Coordinates are counted at ``INDEX_BYTES`` each and values at
        ``VALUE_BYTES`` each, matching the accounting the paper uses
        when sizing the dual storage (Section IV-E2).
        """
        return (
            self.indptr.size * INDEX_BYTES
            + self.indices.size * INDEX_BYTES
            + self.data.size * VALUE_BYTES
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Compressed) or self._row_major != other._row_major:
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "CSR" if self._row_major else "CSC"
        return f"{kind}Matrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"
