"""Compressed Sparse Row (CSR) matrix.

CSR serves the IS stage of the OEI dataflow: the IS ``vxm`` scatters one
input-vector element against one matrix *row* at a time, so it needs
fast row access (Section IV-B).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.compressed import _Compressed
from repro.formats.coo import COOMatrix


class CSRMatrix(_Compressed):
    """Sparse matrix with compressed rows (major dimension = rows)."""

    _row_major = True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        return cls.from_coordinates(coo.shape, coo.rows, coo.cols, coo.vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=np.float64) -> "CSRMatrix":
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=dtype),
        )

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(col_indices, values)`` of row ``i`` as views."""
        return self.major_slice(i)

    def row_nnz(self) -> np.ndarray:
        """Stored entries per row."""
        return self.major_nnz()

    def to_coo(self) -> COOMatrix:
        rows, cols, vals = self.to_coo_arrays()
        return COOMatrix(self.shape, rows, cols, vals)

    def to_csc(self):
        from repro.formats.convert import csr_to_csc

        return csr_to_csc(self)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, still in CSR."""
        return CSRMatrix.from_coo(self.to_coo().transpose())

    # ------------------------------------------------------------------
    # Reference kernels (used by GraphBLAS-mini and by tests)
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Plain arithmetic ``A @ x`` over the (+, *) semiring.

        GraphBLAS-mini implements the general semiring version; this is
        the fast reference path for numeric workloads and tests.
        """
        x = np.asarray(x)
        if x.shape != (self.ncols,):
            raise ValueError(f"vector length {x.shape} does not match ncols {self.ncols}")
        products = self.data * x[self.indices]
        out = np.zeros(self.nrows, dtype=np.result_type(self.data, x))
        np.add.at(out, self.major_ids(), products)
        return out
