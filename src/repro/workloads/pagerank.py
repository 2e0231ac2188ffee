"""PageRank (Fig 1 / Fig 2 of the paper).

The inner loop is ``pr_next = d * (pr x L) + (1 - d) / n + d * dangling
/ n`` over the out-degree-normalized link matrix ``L``. The teleport
term uses the dangling mass of the *previous* vector (the standard
GraphBLAS formulation), which is what keeps every e-wise operation
sub-tensor dependent and the OEI path legal.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.graph import DataflowGraph
from repro.formats.coo import COOMatrix
from repro.graphblas.matrix import Matrix
from repro.semiring.kernels import SlotMajorSpMV
from repro.workloads.base import FunctionalResult, Workload


def normalize_columns_out(matrix: Matrix) -> Matrix:
    """Out-degree-normalize: L[i, j] = A[i, j] / outdeg(i), pattern-wise."""
    coo = matrix.coo
    outdeg = np.bincount(coo.rows, minlength=matrix.nrows).astype(np.float64)
    vals = 1.0 / outdeg[coo.rows]
    return Matrix(COOMatrix(coo.shape, coo.rows, coo.cols, vals))


class PageRank(Workload):
    name = "pr"
    semiring = "mul_add"
    domain = "Graph Analytics"

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-7) -> None:
        self.damping = damping
        self.tolerance = tolerance

    def build_graph(self) -> DataflowGraph:
        g = DataflowGraph("pr")
        link = g.matrix("L")
        pr = g.vector("pr_next")
        y = g.vector("pr_nextnext")
        scaled = g.vector("scaled")
        new = g.vector("pr_new")
        g.scalar("teleport")
        g.vxm("spmv", pr, link, y, self.semiring)
        # Fused OEI path: damp then add the teleport + dangling term.
        g.ewise("damp", "times", [y], scaled, immediate=self.damping)
        g.ewise("teleport_add", "plus", [scaled], new, scalar_operand="teleport")
        # Side group: residual |pr_new - pr| for the convergence check.
        diff = g.vector("diff")
        g.ewise("residual_diff", "abs_diff", [new, pr], diff)
        res = g.scalar("res")
        g.reduce("residual_fold", diff, res, "plus")
        g.carry(new, pr)
        return g

    def run_functional(self, matrix: Matrix, **params) -> FunctionalResult:
        n = matrix.nrows
        # pr @ L, prepared once per run over L's columns: bitwise the
        # MUL_ADD vxm of a fully-present vector.
        spmv = SlotMajorSpMV(normalize_columns_out(matrix).csc)
        dangling_nodes = matrix.row_degrees() == 0
        pr = np.full(n, 1.0 / n)
        iterations = 0
        for _ in range(self.max_iterations):
            dangling = pr[dangling_nodes].sum()
            teleport = (1.0 - self.damping) / n + self.damping * dangling / n
            new = self.damping * spmv(pr) + teleport
            iterations += 1
            residual = np.abs(new - pr).sum()
            pr = new
            if residual < self.tolerance:
                break
        return FunctionalResult(output=pr, n_iterations=iterations)
