"""Microbenchmarks of the library's hot kernels (GraphBLAS-mini
contractions, the OEI functional executor, format conversions) —
throughput numbers a downstream user would care about."""

import numpy as np
import pytest

from repro.dataflow import DataflowGraph, compile_program
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.graphblas import Matrix, Vector, mxm, vxm
from repro.matrices import rmat
from repro.oei import run_oei_pairs
from repro.semiring import AND_OR, MIN_ADD, MUL_ADD
from repro.semiring.kernels import SlotMajorSpMV


@pytest.fixture(scope="module")
def medium():
    coo = rmat(4096, 80_000, seed=9)
    return Matrix(coo)


@pytest.fixture(scope="module")
def vector(medium):
    rng = np.random.default_rng(0)
    return Vector(medium.nrows, rng.random(medium.nrows))


def test_kernel_vxm_mul_add(benchmark, medium, vector):
    medium.csc  # materialize outside the timed region
    result = benchmark(vxm, vector, medium, MUL_ADD)
    assert result.nvals > 0


def test_kernel_spmv_operator_mul_add(benchmark, medium, vector):
    """The prepared slot-major operator on ``test_kernel_vxm_mul_add``'s
    matrix and vector, built outside the timed region."""
    spmv = SlotMajorSpMV(medium.csc)
    result = benchmark(spmv, vector.values)
    expected = vxm(vector, medium, MUL_ADD).to_dense()
    assert result.tobytes() == expected.tobytes()


def test_kernel_vxm_min_add(benchmark, medium, vector):
    medium.csc
    result = benchmark(vxm, vector, medium, MIN_ADD)
    assert result.nvals > 0


def test_kernel_vxm_and_or(benchmark, medium):
    frontier = Vector.from_entries(medium.nrows, [0, 1, 2, 3], [1.0] * 4)
    medium.csc
    result = benchmark(vxm, frontier, medium, AND_OR)
    assert result.nvals >= 0


def test_kernel_mxm(benchmark):
    a = Matrix(rmat(512, 5000, seed=2))
    b = Matrix(rmat(512, 5000, seed=3))
    a.csr, b.csr
    result = benchmark(mxm, a, b, MUL_ADD)
    assert result.nnz > 0


def test_kernel_csr_csc_conversion(benchmark, medium):
    csr = medium.csr
    result = benchmark(csr.to_csc)
    assert result.nnz == csr.nnz


def test_kernel_oei_executor(benchmark, medium):
    g = DataflowGraph("pr_like")
    link = g.matrix("L")
    x, y = g.vector("x"), g.vector("y")
    out = g.vector("out")
    g.vxm("spmv", x, link, y, "mul_add")
    g.ewise("damp", "times", [y], out, immediate=0.85)
    g.carry(out, x)
    prog = compile_program(g)
    csc, csr = CSCMatrix.from_coo(medium.coo), CSRMatrix.from_coo(medium.coo)
    x0 = np.random.default_rng(1).random(medium.nrows)

    trace = benchmark(
        run_oei_pairs, csc, csr, prog, x0, 4, subtensor_cols=256
    )
    assert trace.n_iterations == 4
