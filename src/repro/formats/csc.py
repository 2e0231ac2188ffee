"""Compressed Sparse Column (CSC) matrix.

CSC serves the OS stage of the OEI dataflow: the OS ``vxm`` computes one
output element at a time as a dot product of the input vector with one
matrix *column*, so it needs fast column access (Section IV-B).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.compressed import _Compressed
from repro.formats.coo import COOMatrix


class CSCMatrix(_Compressed):
    """Sparse matrix with compressed columns (major dimension = columns)."""

    _row_major = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        return cls.from_coordinates(coo.shape, coo.cols, coo.rows, coo.vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=np.float64) -> "CSCMatrix":
        return cls(
            shape,
            np.zeros(shape[1] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=dtype),
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` of column ``j`` as views."""
        return self.major_slice(j)

    def col_nnz(self) -> np.ndarray:
        """Stored entries per column."""
        return self.major_nnz()

    def to_coo(self) -> COOMatrix:
        rows, cols, vals = self.to_coo_arrays()
        return COOMatrix(self.shape, rows, cols, vals)

    def to_csr(self):
        from repro.formats.convert import csc_to_csr

        return csc_to_csr(self)

    # ------------------------------------------------------------------
    # Reference kernels
    # ------------------------------------------------------------------
    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """Plain arithmetic ``x^T A`` over the (+, *) semiring — the
        reference for the OS-dataflow ``vxm``."""
        x = np.asarray(x)
        if x.shape != (self.nrows,):
            raise ValueError(f"vector length {x.shape} does not match nrows {self.nrows}")
        products = self.data * x[self.indices]
        out = np.zeros(self.ncols, dtype=np.result_type(self.data, x))
        np.add.at(out, self.major_ids(), products)
        return out
