"""The paper's "vanilla" reorder: a simple heuristic that pushes a
sparse matrix toward upper-triangular / banded structure.

Under the OEI dataflow an element ``(i, j)`` stays on chip from step
``j`` (when the OS stage loads column ``j``) to step ``i + 2`` (when the
IS stage scatters row ``i``), so the reuse window shrinks exactly when
``i - j`` shrinks — i.e. when the matrix bandwidth shrinks. We realize
the heuristic as a breadth-first (Cuthill-McKee style) levelization:
each vertex is placed right after its already-placed neighbors, ordered
by degree, which is both simple and effective at banding graph
matrices.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.formats.convert import stable_order
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix


def _symmetrized_csr(coo: COOMatrix) -> CSRMatrix:
    """Undirected adjacency view of a possibly-directed matrix."""
    rows = np.concatenate((coo.rows, coo.cols))
    cols = np.concatenate((coo.cols, coo.rows))
    vals = np.ones(rows.size)
    return CSRMatrix.from_coo(COOMatrix(coo.shape, rows, cols, vals))


def vanilla_reorder(coo: COOMatrix) -> np.ndarray:
    """Return a permutation ``perm`` with ``perm[old] = new``.

    Applying it symmetrically (rows and columns) relabels graph vertices
    so neighbors get nearby indices, banding the matrix.
    """
    if coo.nrows != coo.ncols:
        raise ValueError(f"reordering expects a square matrix, got {coo.shape}")
    n = coo.nrows
    adj = _symmetrized_csr(coo)
    degree = adj.row_nnz()
    # Sort every adjacency row by (degree, id) once: one stable sort on
    # (row, degree) of the id-ordered rows. The BFS below then appends
    # each vertex's unvisited neighbors in row order, which is the
    # per-vertex degree sort of classic Cuthill-McKee.
    max_degree = int(degree.max()) if n else 0
    by_row_degree = stable_order(
        n, max_degree + 1, adj.major_ids(), degree[adj.indices]
    )
    neighbors = adj.indices[by_row_degree].tolist()
    indptr = adj.indptr.tolist()
    visited = bytearray(n)
    order: List[int] = []

    # Min-degree start vertex per connected component (classic CM). The
    # order list doubles as the BFS queue: vertices leave it in the
    # order they entered it.
    for start in np.argsort(degree, kind="stable").tolist():
        if visited[start]:
            continue
        visited[start] = 1
        head = len(order)
        order.append(start)
        while head < len(order):
            u = order[head]
            head += 1
            for v in neighbors[indptr[u]:indptr[u + 1]]:
                if not visited[v]:
                    visited[v] = 1
                    order.append(v)

    perm = np.empty(n, dtype=np.int64)
    perm[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return perm


def bandwidth(coo: COOMatrix) -> int:
    """Matrix bandwidth ``max |i - j|`` over stored entries — the scalar
    the vanilla reorder tries to reduce."""
    if coo.nnz == 0:
        return 0
    return int(np.abs(coo.rows - coo.cols).max())
