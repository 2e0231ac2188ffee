"""Naive dual CSC+CSR storage (Section IV-B).

Sparsepipe's OS and IS stages traverse the same matrix in opposite
orders, so the on-chip buffer keeps both a CSC and a CSR image. The
naive realization simply duplicates coordinates and values; its byte
cost is the baseline that the blocked format of Section IV-E2
(:class:`repro.formats.blocked.BlockedDualStorage`) is measured against
in Fig 20(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix


@dataclass(frozen=True)
class DualStorage:
    """A matrix held simultaneously in CSC (for the OS stage) and CSR
    (for the IS stage)."""

    csc: CSCMatrix
    csr: CSRMatrix

    def __post_init__(self) -> None:
        if self.csc.shape != self.csr.shape:
            raise ValueError(
                f"CSC shape {self.csc.shape} != CSR shape {self.csr.shape}"
            )
        if self.csc.nnz != self.csr.nnz:
            raise ValueError(
                f"CSC nnz {self.csc.nnz} != CSR nnz {self.csr.nnz}"
            )

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "DualStorage":
        coo = coo.canonical()
        return cls(csc=CSCMatrix.from_coo(coo), csr=CSRMatrix.from_coo(coo))

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "DualStorage":
        return cls(csc=csr.to_csc(), csr=csr)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def col(self, j: int):
        """Column access path, as used by the OS stage."""
        return self.csc.col(j)

    def row(self, i: int):
        """Row access path, as used by the IS stage."""
        return self.csr.row(i)

    def storage_bytes(self) -> int:
        """Total footprint: both images, fully duplicated."""
        return self.csc.storage_bytes() + self.csr.storage_bytes()

    def to_dense(self) -> np.ndarray:
        return self.csr.to_dense()
