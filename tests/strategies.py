"""Shared hypothesis strategies for the property-based suites.

Every property test file imports its strategies from here — the single
home for the finite-float domain, seed/dimension integers, the monoid
name samplers, and the random e-wise program generator — instead of
redeclaring private copies. ``tests/test_strategies.py`` smoke-tests
the generators themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.dataflow.program import EWiseInstr, OEIProgram, Operand, OperandKind
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.semiring import MONOIDS

#: Finite floats bounded away from overflow — the shared numeric domain
#: of every algebraic property test.
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: Full-range RNG seeds for deterministic random-matrix construction.
seeds = st.integers(0, 2**31 - 1)

#: Plain booleans (re-exported so test files need no ``st`` import).
booleans = st.booleans()


def dims(lo: int, hi: int):
    """Matrix/vector dimensions (or iteration counts) in ``[lo, hi]``."""
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid dimension bounds [{lo}, {hi}]")
    return st.integers(lo, hi)


def finite_lists(max_size: int = 20):
    """Lists of finite floats, possibly empty (reduction inputs)."""
    return st.lists(finite, min_size=0, max_size=max_size)


def monoid_names(*names: str):
    """Sampler over monoid names — a subset, or every registered
    monoid when called without arguments."""
    pool = list(names) if names else sorted(MONOIDS)
    unknown = [n for n in pool if n not in MONOIDS]
    if unknown:
        raise ValueError(f"unknown monoid name(s): {unknown}")
    return st.sampled_from(pool)


def subtensor_widths(*widths: int):
    """Sampler over sub-tensor column widths for schedule sweeps."""
    if not widths:
        raise ValueError("subtensor_widths needs at least one width")
    return st.sampled_from(list(widths))


#: Binary ops that stay finite on bounded inputs.
SAFE_BINARY = ("plus", "minus", "times", "min", "max", "abs_diff")
#: Semirings whose add/mul keep bounded inputs bounded.
SAFE_SEMIRINGS = ("mul_add", "min_add", "max_times")


@st.composite
def coo_matrices(draw, max_n: int = 48, allow_empty: bool = True):
    """A deterministic random square COO matrix.

    Draws the seed/size/density (so shrinking walks toward small, sparse
    inputs) and builds the matrix with numpy — including the degenerate
    shapes the vectorized kernels must survive: fully empty matrices,
    empty rows/columns, and single-nonzero matrices.
    """
    n = draw(st.integers(1, max_n))
    seed = draw(seeds)
    density = draw(st.floats(0.0 if allow_empty else 0.05, 0.4))
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < density) * gen.uniform(-2.0, 2.0, (n, n))
    if draw(st.booleans()) and n > 2:
        dense[draw(st.integers(0, n - 1)), :] = 0.0   # an empty row
        dense[:, draw(st.integers(0, n - 1))] = 0.0   # an empty column
    return COOMatrix.from_dense(dense)


@st.composite
def compressed_matrices(draw, max_major: int = 600, max_minor: int = 40):
    """A random CSR or CSC matrix whose major slices (rows of a CSR,
    columns of a CSC) mostly hold a few entries while a few hold many,
    as in a power-law graph. Slice counts reach past 256, the size at
    which a slot of :class:`~repro.semiring.kernels.SlotMajorSpMV` gets
    its own add; empty slices and values of ``0.0`` and ``-0.0`` are
    common.
    """
    n_major = draw(st.integers(0, max_major))
    n_minor = draw(st.integers(1, max_minor))
    gen = np.random.default_rng(draw(seeds))
    degree = gen.integers(0, draw(st.integers(0, 6)) + 1, n_major)
    heavy = gen.random(n_major) < draw(st.floats(0.0, 0.1))
    degree[heavy] = gen.integers(0, n_minor + 1, int(heavy.sum()))
    degree = np.minimum(degree, n_minor)
    major = np.repeat(np.arange(n_major, dtype=np.int64), degree)
    minor = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.sort(gen.permutation(n_minor)[:d]) for d in degree.tolist()]
    )
    vals = gen.uniform(-2.0, 2.0, major.size)
    signed_zero = gen.random(major.size) < 0.1
    vals[signed_zero] = np.where(gen.random(int(signed_zero.sum())) < 0.5, 0.0, -0.0)
    if draw(st.booleans()):
        return CSRMatrix.from_coordinates((n_major, n_minor), major, minor, vals)
    return CSCMatrix.from_coordinates((n_minor, n_major), major, minor, vals)


@st.composite
def random_programs(draw):
    """A random straight-line e-wise program of 1-4 instructions."""
    n_instr = draw(st.integers(1, 4))
    instructions = []
    aux_used = draw(st.booleans())
    scalar_used = draw(st.booleans())
    for i in range(n_instr):
        op = draw(st.sampled_from(SAFE_BINARY))
        sources = [Operand(OperandKind.Y)]
        if i > 0:
            sources.append(Operand(OperandKind.REG, draw(st.integers(0, i - 1))))
        choices = ["const"]
        if aux_used:
            choices.append("aux")
        if scalar_used:
            choices.append("scalar")
        kind = draw(st.sampled_from(choices))
        if kind == "const":
            extra = Operand(
                OperandKind.CONST,
                draw(st.floats(-2.0, 2.0, allow_nan=False)),
            )
        elif kind == "aux":
            extra = Operand(OperandKind.AUX, "a0")
        else:
            extra = Operand(OperandKind.SCALAR, "s0")
        srcs = (sources[-1], extra) if len(sources) > 1 else (sources[0], extra)
        instructions.append(EWiseInstr(op, i, srcs))
    semiring = draw(st.sampled_from(SAFE_SEMIRINGS))
    return OEIProgram(
        name="random",
        semiring_name=semiring,
        instructions=tuple(instructions),
        result_reg=n_instr - 1,
        aux_vectors=("a0",) if aux_used else (),
        scalar_names=("s0",) if scalar_used else (),
        n_registers=n_instr,
        has_oei=True,
    )


#: Stored values the canonical-order kernel must treat exactly: explicit
#: zeros of both signs beside ordinary finite values.
coo_values = st.one_of(st.just(0.0), st.just(-0.0), finite)


@st.composite
def raw_coo_entries(draw, max_nnz: int = 40):
    """Unnormalized ``(shape, rows, cols, vals)`` COO input.

    Coordinates come from small per-dimension pools, so duplicates are
    frequent; values include ``0.0`` and ``-0.0``; the dtype is float64
    or int64; ``max_nnz`` may be drawn as zero (empty input). A third of
    the draws are already canonical (strictly increasing row-major, the
    first value of each coordinate kept), and a quarter use a shape
    whose ``nrows * ncols`` reaches ``2**63``: a few rows by at least
    ``2**62`` columns, so the row dimension stays small enough to
    compress along.
    """
    if draw(st.integers(0, 3)) == 0:
        shape = (draw(dims(2, 8)), draw(st.integers(2**62, 2**63 - 1)))
    else:
        shape = (draw(dims(1, 12)), draw(dims(1, 12)))
    row_pool = draw(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=6))
    col_pool = draw(st.lists(st.integers(0, shape[1] - 1), min_size=1, max_size=6))
    nnz = draw(st.integers(0, max_nnz))
    rows = np.array(draw(st.lists(st.sampled_from(row_pool), min_size=nnz, max_size=nnz)),
                    dtype=np.int64)
    cols = np.array(draw(st.lists(st.sampled_from(col_pool), min_size=nnz, max_size=nnz)),
                    dtype=np.int64)
    vals = np.array(draw(st.lists(coo_values, min_size=nnz, max_size=nnz)), dtype=np.float64)
    if draw(st.booleans()):
        vals = np.trunc(vals).astype(np.int64)
    if draw(st.integers(0, 2)) == 0:
        first = {}
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            first.setdefault((r, c), v)
        coords = sorted(first)
        rows = np.array([r for r, _ in coords], dtype=np.int64)
        cols = np.array([c for _, c in coords], dtype=np.int64)
        vals = np.array([first[k] for k in coords], dtype=vals.dtype)
    return shape, rows, cols, vals
