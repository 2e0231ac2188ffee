"""Blocked dual sparse storage — the paper's UOP-CP-CP format.

Section IV-E2: the naive dual storage duplicates every coordinate and
value. The blocked format instead tiles the matrix into ``B x B``
non-zero blocks and

- stores the block *contents* once, shared by both orientations, with
  intra-block coordinates that fit in a single byte when ``B <= 256``;
- keeps two cheap block-level indices (a block-CSR and a block-CSC of
  *pointers to blocks*), whose size scales with the number of non-zero
  blocks rather than the number of non-zeros.

In FiberTree terms this is Uncompressed-Offset-Pointer over block rows
(or block columns), Compressed-Pointer over block coordinates, and
Compressed-Pointer over intra-block coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.compressed import INDEX_BYTES, VALUE_BYTES
from repro.formats.convert import stable_order
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix

#: Intra-block coordinates need one byte per dimension when B <= 256.
LOCAL_COORD_BYTES = 1


@dataclass
class BlockedDualStorage:
    """Shared-payload blocked dual storage.

    Attributes
    ----------
    shape:
        Logical matrix shape.
    block_size:
        Tile edge ``B`` (<= 256 so local coordinates fit in one byte).
    block_rows / block_cols:
        Block coordinates of each non-zero block, sorted row-major.
    block_ptr:
        ``n_blocks + 1`` offsets into the payload arrays.
    local_rows / local_cols / vals:
        Per-entry intra-block coordinates and values, stored once.
    row_block_indptr / row_block_ids:
        Block-level CSR: for each block row, which blocks it contains
        (ids index into ``block_rows``/``block_cols``/``block_ptr``).
    col_block_indptr / col_block_ids:
        Block-level CSC over the same shared payload.
    """

    shape: Tuple[int, int]
    block_size: int
    block_rows: np.ndarray
    block_cols: np.ndarray
    block_ptr: np.ndarray
    local_rows: np.ndarray
    local_cols: np.ndarray
    vals: np.ndarray
    row_block_indptr: np.ndarray = field(repr=False, default=None)
    row_block_ids: np.ndarray = field(repr=False, default=None)
    col_block_indptr: np.ndarray = field(repr=False, default=None)
    col_block_ids: np.ndarray = field(repr=False, default=None)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, block_size: int = 256) -> "BlockedDualStorage":
        if not 1 <= block_size <= 256:
            raise FormatError(
                f"block_size must be in [1, 256] for 1-byte local coordinates, "
                f"got {block_size}"
            )
        dedup = coo.canonical()
        brow = dedup.rows // block_size
        bcol = dedup.cols // block_size
        n_block_rows = max(1, -(-dedup.nrows // block_size))
        n_block_cols = max(1, -(-dedup.ncols // block_size))
        # dedup is row-major, so a stable sort on the block coordinate
        # alone orders entries by (block row, block col, row, col).
        order = stable_order(n_block_rows, n_block_cols, brow, bcol)
        brow, bcol = brow[order], bcol[order]
        rows, cols, vals = dedup.rows[order], dedup.cols[order], dedup.vals[order]

        keys = brow * n_block_cols + bcol
        if keys.size:
            boundaries = np.concatenate(([True], keys[1:] != keys[:-1]))
        else:
            boundaries = np.zeros(0, dtype=bool)
        block_start = np.flatnonzero(boundaries)
        block_ptr = np.concatenate((block_start, [keys.size])).astype(np.int64)
        block_rows = brow[block_start]
        block_cols = bcol[block_start]

        out = cls(
            shape=dedup.shape,
            block_size=block_size,
            block_rows=block_rows.astype(np.int64),
            block_cols=block_cols.astype(np.int64),
            block_ptr=block_ptr,
            local_rows=(rows % block_size).astype(np.uint8),
            local_cols=(cols % block_size).astype(np.uint8),
            vals=vals,
        )
        out._build_block_indices()
        return out

    @classmethod
    def from_csr(cls, csr: CSRMatrix, block_size: int = 256) -> "BlockedDualStorage":
        return cls.from_coo(csr.to_coo(), block_size)

    def _build_block_indices(self) -> None:
        """Build the two block-level orientation indices."""
        n_brow = max(1, -(-self.shape[0] // self.block_size))
        n_bcol = max(1, -(-self.shape[1] // self.block_size))
        ids = np.arange(self.n_blocks, dtype=np.int64)

        counts = np.bincount(self.block_rows, minlength=n_brow)
        self.row_block_indptr = np.zeros(n_brow + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_block_indptr[1:])
        self.row_block_ids = ids  # blocks are already sorted row-major

        col_order = stable_order(n_bcol, n_brow, self.block_cols, self.block_rows)
        counts = np.bincount(self.block_cols, minlength=n_bcol)
        self.col_block_indptr = np.zeros(n_bcol + 1, dtype=np.int64)
        np.cumsum(counts, out=self.col_block_indptr[1:])
        self.col_block_ids = ids[col_order]

    # ------------------------------------------------------------------
    # Properties and access
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return int(self.block_rows.size)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def block(self, block_id: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(global_rows, global_cols, vals)`` of one block."""
        if not 0 <= block_id < self.n_blocks:
            raise IndexError(f"block {block_id} out of range for {self.n_blocks}")
        lo, hi = int(self.block_ptr[block_id]), int(self.block_ptr[block_id + 1])
        base_r = int(self.block_rows[block_id]) * self.block_size
        base_c = int(self.block_cols[block_id]) * self.block_size
        return (
            base_r + self.local_rows[lo:hi].astype(np.int64),
            base_c + self.local_cols[lo:hi].astype(np.int64),
            self.vals[lo:hi],
        )

    def blocks_in_block_row(self, block_row: int) -> np.ndarray:
        """Block ids stored in one block row (IS-orientation access)."""
        lo = int(self.row_block_indptr[block_row])
        hi = int(self.row_block_indptr[block_row + 1])
        return self.row_block_ids[lo:hi]

    def blocks_in_block_col(self, block_col: int) -> np.ndarray:
        """Block ids stored in one block column (OS-orientation access)."""
        lo = int(self.col_block_indptr[block_col])
        hi = int(self.col_block_indptr[block_col + 1])
        return self.col_block_ids[lo:hi]

    def to_coo(self) -> COOMatrix:
        """Reconstruct the full matrix (round-trip check in tests)."""
        base_r = np.repeat(self.block_rows, np.diff(self.block_ptr)) * self.block_size
        base_c = np.repeat(self.block_cols, np.diff(self.block_ptr)) * self.block_size
        return COOMatrix(
            self.shape,
            base_r + self.local_rows.astype(np.int64),
            base_c + self.local_cols.astype(np.int64),
            self.vals.copy(),
        )

    # ------------------------------------------------------------------
    # Storage accounting (Fig 20a)
    # ------------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Shared block payload: two 1-byte local coordinates + value per
        non-zero, plus block extent pointers."""
        per_entry = 2 * LOCAL_COORD_BYTES + VALUE_BYTES
        return self.nnz * per_entry + self.block_ptr.size * INDEX_BYTES

    def index_bytes(self) -> int:
        """Both block-level orientation indices: block coordinates plus
        block-id pointer lists plus the two uncompressed offset arrays."""
        block_coord = (self.block_rows.size + self.block_cols.size) * INDEX_BYTES
        pointer_lists = (self.row_block_ids.size + self.col_block_ids.size) * INDEX_BYTES
        offsets = (self.row_block_indptr.size + self.col_block_indptr.size) * INDEX_BYTES
        return block_coord + pointer_lists + offsets

    def storage_bytes(self) -> int:
        """Total footprint of the blocked dual storage."""
        return self.payload_bytes() + self.index_bytes()
