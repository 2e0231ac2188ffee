"""The streaming host kernels against the implementations they replaced.

Three host kernels stream their operand instead of materializing an
intermediate: ``mxm_dense`` reduces one feature column at a time,
``stable_order`` is an LSD radix sort over 16-bit digits, and
``vanilla_reorder`` runs its Cuthill-McKee BFS over adjacency rows that
were sorted by (degree, id) once. The oracles below are the contract
each kernel must meet, kept here verbatim: the ``ufunc.at`` fold into an
identity-filled output, ``np.lexsort``, and the per-vertex BFS with a
per-vertex degree ``argsort``. Every comparison is bitwise.

The batched MIN/MAX kernels are checked against the reference
:class:`~repro.semiring.monoids.Monoid` methods on inputs dominated by
signed zeros, where numpy's SIMD ``reduceat`` and the scalar fold of
``ufunc.at`` resolve a ``0.0``/``-0.0`` tie differently.

:class:`~repro.semiring.kernels.SlotMajorSpMV`, the prepared SpMV of the
Krylov solvers and PageRank, is checked against ``mxv``/``vxm`` on the
suite and against the ``np.add.at`` fold of the same products on edge
shapes, edge values and random CSR/CSC matrices.
"""

import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.formats.convert import stable_order
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.graphblas import Matrix, Vector, mxm_dense, mxv, vxm
from repro.matrices.suite import load_suite_matrix, suite_names
from repro.preprocess.vanilla_reorder import _symmetrized_csr, vanilla_reorder
from repro.semiring import MONOIDS, MUL_ADD, SEMIRINGS, kernels
from repro.semiring.kernels import SlotMajorSpMV
from repro.workloads.gcn import GCN
from repro.workloads.pagerank import normalize_columns_out
from repro.workloads.solvers import spd_system
from tests.strategies import compressed_matrices

#: Values where the fold order shows: signed zeros and infinities.
EDGE_VALUES = (0.0, -0.0, np.inf, -np.inf, 1.5, -2.0, 0.25)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _contract_mxm_dense(a, b, semiring):
    """The SpMM contract: ``add.ufunc.at`` of every product into an
    identity-filled output, in storage order."""
    csr = a.csr
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), csr.row_nnz())
    products = semiring.mul(csr.data[:, None], b[csr.indices])
    out = np.full((a.nrows, b.shape[1]), semiring.zero, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        semiring.add.op.ufunc.at(out, rows, products)
    return out


def _old_vanilla_reorder(coo):
    """Cuthill-McKee with a per-vertex degree sort of the fresh
    neighbors, as ``vanilla_reorder`` was before the presorted rows."""
    n = coo.nrows
    adj = _symmetrized_csr(coo)
    degree = adj.row_nnz()
    visited = np.zeros(n, dtype=bool)
    order = []
    for start in np.argsort(degree, kind="stable"):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([int(start)])
        while queue:
            u = queue.popleft()
            order.append(u)
            neighbors, _ = adj.row(u)
            fresh = neighbors[~visited[neighbors]]
            if fresh.size:
                visited[fresh] = True
                fresh = fresh[np.argsort(degree[fresh], kind="stable")]
                queue.extend(int(v) for v in fresh)
    perm = np.empty(n, dtype=np.int64)
    perm[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return perm


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def edge_operands(draw, max_n: int = 12):
    """A sparse matrix with empty rows and a dense operand, both drawn
    from :data:`EDGE_VALUES`, with ``F`` in {1, 16}."""
    nrows = draw(st.integers(1, max_n))
    ncols = draw(st.integers(1, max_n))
    features = draw(st.sampled_from((1, 16)))
    gen = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pool = np.array(EDGE_VALUES)
    stored = gen.random((nrows, ncols)) < draw(st.floats(0.0, 0.8))
    stored[gen.random(nrows) < 0.3] = False  # whole empty rows
    rows, cols = np.nonzero(stored)
    vals = pool[gen.integers(0, pool.size, rows.size)]
    b = pool[gen.integers(0, pool.size, (ncols, features))]
    return Matrix(COOMatrix((nrows, ncols), rows, cols, vals)), b


@st.composite
def reorder_graphs(draw, max_n: int = 30):
    """Square matrices with isolated vertices, self-loops, asymmetric
    and duplicate edges and several components; ``n`` may be 0 or 1."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return COOMatrix.empty((0, 0))
    gen = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # No edge joins two groups, so most draws have several components;
    # sparse draws leave vertices isolated.
    group = gen.integers(0, draw(st.integers(1, 4)), n)
    n_edges = draw(st.integers(0, 4 * n))
    rows = gen.integers(0, n, n_edges)
    cols = gen.integers(0, n, n_edges)
    keep = group[rows] == group[cols]
    rows, cols = rows[keep], cols[keep]
    repeat = gen.random(rows.size) < 0.2
    loops = gen.integers(0, n, draw(st.integers(0, 3)))
    rows = np.concatenate((rows, rows[repeat], loops))
    cols = np.concatenate((cols, cols[repeat], loops))
    return COOMatrix((n, n), rows, cols, np.ones(rows.size))


#: The digit boundaries of the radix sort, and shapes far past int64
#: fused keys.
RADIX_SIZES = (1, 2**16, 2**16 + 1, 2**32 + 3, 2**62 + 5)


def _boundary_coordinates(gen, n, size):
    """Coordinates below ``n`` that cluster on the 16-bit digit
    boundaries, so neighbouring values differ only in a high digit."""
    pool = {0, n - 1, n // 2}
    for bit in (16, 32, 48):
        for base in (1 << bit, (1 << bit) - 1, (1 << bit) + 1):
            if base < n:
                pool.add(base)
    pool = np.array(sorted(pool), dtype=np.int64)
    return pool[gen.integers(0, pool.size, size)]


# ----------------------------------------------------------------------
# Per-feature SpMM
# ----------------------------------------------------------------------
class TestStreamingSpMM:
    @pytest.mark.parametrize("features", (1, 16))
    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_matches_contract_on_edge_values(self, name, features):
        gen = np.random.default_rng(7)
        pool = np.array(EDGE_VALUES)
        rows = np.array([0, 0, 0, 2, 2, 2, 2, 2, 4])  # rows 1 and 3 empty
        cols = np.array([0, 1, 3, 0, 1, 2, 3, 4, 2])
        a = Matrix(COOMatrix((5, 5), rows, cols, pool[gen.integers(0, 7, 9)]))
        b = pool[gen.integers(0, 7, (5, features))]
        semiring = SEMIRINGS[name]
        out = mxm_dense(a, b, semiring)
        assert out.flags.c_contiguous
        assert_bitwise(out, _contract_mxm_dense(a, b, semiring))

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_empty_matrix_is_identity_filled(self, name):
        semiring = SEMIRINGS[name]
        a = Matrix(COOMatrix.empty((3, 4)))
        out = mxm_dense(a, np.ones((4, 16)), semiring)
        assert_bitwise(out, np.full((3, 16), semiring.zero))

    @settings(max_examples=60, deadline=None)
    @given(edge_operands(), st.sampled_from(sorted(SEMIRINGS)))
    def test_matches_contract(self, operands, name):
        a, b = operands
        semiring = SEMIRINGS[name]
        assert_bitwise(mxm_dense(a, b, semiring), _contract_mxm_dense(a, b, semiring))

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(edge_operands(max_n=40), st.sampled_from(sorted(SEMIRINGS)))
    def test_matches_contract_deep(self, operands, name):
        a, b = operands
        semiring = SEMIRINGS[name]
        assert_bitwise(mxm_dense(a, b, semiring), _contract_mxm_dense(a, b, semiring))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", suite_names())
    def test_gcn_operator_on_the_suite(self, name):
        norm = GCN._normalized(Matrix(load_suite_matrix(name)))
        h = np.random.default_rng(0).random((norm.ncols, 16))
        semiring = SEMIRINGS["mul_add"]
        assert_bitwise(mxm_dense(norm, h, semiring), _contract_mxm_dense(norm, h, semiring))


# ----------------------------------------------------------------------
# Radix canonical order
# ----------------------------------------------------------------------
class TestRadixOrder:
    @pytest.mark.parametrize("n_minor", RADIX_SIZES)
    @pytest.mark.parametrize("n_major", RADIX_SIZES)
    def test_matches_lexsort_across_digit_boundaries(self, n_major, n_minor):
        gen = np.random.default_rng(n_major % 1000 + n_minor % 997)
        major = _boundary_coordinates(gen, n_major, 3000)
        minor = _boundary_coordinates(gen, n_minor, 3000)
        assert np.array_equal(
            stable_order(n_major, n_minor, major, minor), np.lexsort((minor, major))
        )

    @pytest.mark.parametrize("size", (0, 1))
    def test_tiny_inputs(self, size):
        coords = np.zeros(size, dtype=np.int64)
        for n in RADIX_SIZES:
            assert np.array_equal(
                stable_order(n, n, coords, coords), np.lexsort((coords, coords))
            )

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(RADIX_SIZES), st.sampled_from(RADIX_SIZES),
        st.integers(0, 2**31 - 1), st.integers(0, 200),
    )
    def test_matches_lexsort_deep(self, n_major, n_minor, seed, size):
        gen = np.random.default_rng(seed)
        major = _boundary_coordinates(gen, n_major, size)
        minor = _boundary_coordinates(gen, n_minor, size)
        assert np.array_equal(
            stable_order(n_major, n_minor, major, minor), np.lexsort((minor, major))
        )


# ----------------------------------------------------------------------
# Presorted Cuthill-McKee
# ----------------------------------------------------------------------
class TestPresortedCuthillMcKee:
    @pytest.mark.parametrize("n", (0, 1))
    def test_degenerate_sizes(self, n):
        perm = vanilla_reorder(COOMatrix.empty((n, n)))
        assert perm.dtype == np.int64
        assert perm.tolist() == list(range(n))

    def test_isolated_vertices_only(self):
        assert vanilla_reorder(COOMatrix.empty((5, 5))).tolist() == [0, 1, 2, 3, 4]

    @settings(max_examples=150, deadline=None)
    @given(reorder_graphs())
    def test_matches_per_vertex_bfs(self, coo):
        assert_bitwise(vanilla_reorder(coo), _old_vanilla_reorder(coo))

    @pytest.mark.slow
    @settings(max_examples=800, deadline=None)
    @given(reorder_graphs(max_n=120))
    def test_matches_per_vertex_bfs_deep(self, coo):
        assert_bitwise(vanilla_reorder(coo), _old_vanilla_reorder(coo))

    @pytest.mark.parametrize("name", ("gy", "g2"))
    def test_small_suite_matrices(self, name):
        coo = load_suite_matrix(name)
        assert_bitwise(vanilla_reorder(coo), _old_vanilla_reorder(coo))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", suite_names())
    def test_suite_matrices(self, name):
        coo = load_suite_matrix(name)
        assert_bitwise(vanilla_reorder(coo), _old_vanilla_reorder(coo))


# ----------------------------------------------------------------------
# Signed-zero ties in the batched MIN/MAX kernels
# ----------------------------------------------------------------------
#: Mostly zeros of both signs, so ties are the rule.
signed_zero_heavy = st.sampled_from((0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.0, -1.0, np.inf))
TIE_MONOIDS = ("min", "max", "lor")


class TestSignedZeroTies:
    @pytest.mark.parametrize("name", ("min", "max"))
    def test_reproducer(self, name):
        monoid = MONOIDS[name]
        values = np.array([0.0] * 8 + [-0.0])
        ids = np.zeros(9, dtype=np.int64)
        assert_bitwise(
            kernels.segment_reduce(monoid, values, ids, 1),
            monoid.segment_reduce(values, ids, 1),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(TIE_MONOIDS),
        st.lists(st.one_of(st.just(0), st.integers(9, 20)), min_size=1, max_size=6),
        st.data(),
    )
    def test_segment_reduce(self, name, lengths, data):
        monoid = MONOIDS[name]
        ids = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        values = np.array(
            data.draw(st.lists(signed_zero_heavy, min_size=ids.size, max_size=ids.size)),
            dtype=np.float64,
        )
        assert_bitwise(
            kernels.segment_reduce(monoid, values, ids, len(lengths)),
            monoid.segment_reduce(values, ids, len(lengths)),
        )

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(TIE_MONOIDS), st.integers(1, 4), st.data())
    def test_scatter(self, name, n_targets, data):
        monoid = MONOIDS[name]
        size = data.draw(st.integers(9 * n_targets, 30 * n_targets))
        indices = np.array(
            data.draw(st.lists(st.integers(0, n_targets - 1), min_size=size, max_size=size)),
            dtype=np.int64,
        )
        values = np.array(
            data.draw(st.lists(signed_zero_heavy, min_size=size, max_size=size)),
            dtype=np.float64,
        )
        start = np.array(
            data.draw(st.lists(
                st.sampled_from((0.0, -0.0, monoid.identity, 2.0)),
                min_size=n_targets, max_size=n_targets,
            )),
            dtype=np.float64,
        )
        expected, actual = start.copy(), start.copy()
        monoid.scatter(expected, indices, values)
        kernels.scatter(monoid, actual, indices, values)
        assert_bitwise(actual, expected)


# ----------------------------------------------------------------------
# Slot-major SpMV
# ----------------------------------------------------------------------
#: NaNs with distinct payloads and signs (the last one signaling), for
#: the test where NaNs of different payloads meet.
PAYLOAD_NANS = tuple(
    np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000003],
             dtype=np.uint64).view(np.float64)
)
SPMV_EDGE_VALUES = EDGE_VALUES + (np.nan,) + PAYLOAD_NANS


def _contract_spmv(compressed, x):
    """The MUL_ADD contraction of ``mxv`` (CSR) or ``vxm`` (CSC) on a
    fully-present vector: every product, in storage order and in the
    contraction's operand order, folded by ``np.add.at`` into +0.0."""
    gathered = x[compressed.indices]
    if compressed._row_major:
        products = compressed.data * gathered
    else:
        products = gathered * compressed.data
    out = np.zeros(compressed.n_major)
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(out, compressed.major_ids(), products)
    return out


def _compressed(row_major, n_major, n_minor, major, minor, vals):
    cls = CSRMatrix if row_major else CSCMatrix
    shape = (n_major, n_minor) if row_major else (n_minor, n_major)
    return cls.from_coordinates(
        shape,
        np.asarray(major, dtype=np.int64),
        np.asarray(minor, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


def _uniform_degree(row_major, n_major, n_minor, degree, gen):
    """Every major slice holds ``degree`` entries, columns 0..degree-1."""
    major = np.repeat(np.arange(n_major), degree)
    minor = np.tile(np.arange(degree), n_major)
    return _compressed(row_major, n_major, n_minor, major, minor,
                       gen.uniform(-2.0, 2.0, major.size))


def _assert_spmv(compressed, x):
    assert_bitwise(SlotMajorSpMV(compressed)(x), _contract_spmv(compressed, x))


ORIENTATIONS = pytest.mark.parametrize("row_major", (True, False), ids=("csr", "csc"))


class TestSlotMajorSpMV:
    @pytest.mark.parametrize("name", suite_names())
    def test_spd_systems_match_mxv(self, name):
        system = spd_system(Matrix(load_suite_matrix(name)))
        x = np.random.default_rng(0).standard_normal(system.ncols)
        expected = mxv(system, Vector(x.size, x), MUL_ADD).to_dense()
        assert_bitwise(SlotMajorSpMV(system.csr)(x), expected)

    @pytest.mark.parametrize("name", suite_names())
    def test_pagerank_links_match_vxm(self, name):
        link = normalize_columns_out(Matrix(load_suite_matrix(name)))
        x = np.random.default_rng(1).random(link.nrows)
        expected = vxm(Vector(x.size, x), link, MUL_ADD).to_dense()
        assert_bitwise(SlotMajorSpMV(link.csc)(x), expected)

    @ORIENTATIONS
    @pytest.mark.parametrize("n_major, n_minor", ((0, 0), (0, 5), (5, 0), (1, 4)))
    def test_degenerate_shapes(self, row_major, n_major, n_minor):
        gen = np.random.default_rng(2)
        degree = 3 if n_major and n_minor else 0
        compressed = _uniform_degree(row_major, n_major, n_minor, degree, gen)
        _assert_spmv(compressed, gen.random(n_minor))

    @ORIENTATIONS
    def test_all_rows_empty(self, row_major):
        compressed = _compressed(row_major, 300, 6, [], [], [])
        out = SlotMajorSpMV(compressed)(np.full(6, np.nan))
        assert_bitwise(out, np.zeros(300))

    @ORIENTATIONS
    def test_one_row_holds_every_entry(self, row_major):
        gen = np.random.default_rng(3)
        compressed = _compressed(row_major, 300, 40, np.full(40, 123), np.arange(40),
                                 gen.uniform(-2.0, 2.0, 40))
        op = SlotMajorSpMV(compressed)
        assert op._n_heavy == 1 and not op._slots
        _assert_spmv(compressed, gen.standard_normal(40))

    @ORIENTATIONS
    def test_all_rows_heavy(self, row_major):
        """Fewer than 256 rows: no slot pays for its add."""
        gen = np.random.default_rng(4)
        compressed = _uniform_degree(row_major, 255, 10, 3, gen)
        op = SlotMajorSpMV(compressed)
        assert op._n_heavy == 255 and not op._slots
        _assert_spmv(compressed, gen.standard_normal(10))

    @ORIENTATIONS
    def test_all_rows_light(self, row_major):
        gen = np.random.default_rng(5)
        compressed = _uniform_degree(row_major, 256, 10, 3, gen)
        op = SlotMajorSpMV(compressed)
        assert op._n_heavy == 0 and len(op._slots) == 3
        _assert_spmv(compressed, gen.standard_normal(10))

    @ORIENTATIONS
    def test_heavy_and_light_rows_mixed(self, row_major):
        gen = np.random.default_rng(6)
        degree = np.concatenate((np.full(400, 2), np.full(300, 1), [9, 30, 30]))
        gen.shuffle(degree)
        major = np.repeat(np.arange(degree.size), degree)
        minor = np.concatenate([np.arange(d) * 2 for d in degree])
        compressed = _compressed(row_major, degree.size, 60, major, minor,
                                 gen.uniform(-2.0, 2.0, major.size))
        op = SlotMajorSpMV(compressed)
        assert op._n_heavy == 3 and len(op._slots) == 2
        _assert_spmv(compressed, gen.standard_normal(60))

    @ORIENTATIONS
    @pytest.mark.parametrize("fill", (0.0, -0.0, np.inf, -np.inf, np.nan))
    def test_vectors_of_one_edge_value(self, row_major, fill):
        gen = np.random.default_rng(11)
        degree = np.concatenate((np.full(300, 3), [12, 0, 7]))
        major = np.repeat(np.arange(degree.size), degree)
        minor = np.concatenate([np.sort(gen.permutation(16)[:d]) for d in degree])
        pool = np.array((0.0, -0.0, 1.5, -2.0, 0.25))
        compressed = _compressed(row_major, degree.size, 16, major, minor,
                                 pool[gen.integers(0, pool.size, major.size)])
        with np.errstate(invalid="ignore"):
            _assert_spmv(compressed, np.full(16, fill))

    @ORIENTATIONS
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_edge_values_up_to_nan_payload(self, row_major, seed):
        """Edge values in the matrix and the vector at once. Where two
        NaNs of different payloads meet, numpy's own SIMD and scalar
        loops keep different ones, so only that choice is left open:
        NaN positions and every other bit must match."""
        gen = np.random.default_rng(seed)
        pool = np.array(SPMV_EDGE_VALUES)
        degree = np.concatenate((np.full(300, 3), [12, 0, 7]))
        major = np.repeat(np.arange(degree.size), degree)
        minor = np.concatenate([np.sort(gen.permutation(16)[:d]) for d in degree])
        compressed = _compressed(row_major, degree.size, 16, major, minor,
                                 pool[gen.integers(0, pool.size, major.size)])
        with np.errstate(invalid="ignore"):
            x = pool[gen.integers(0, pool.size, 16)]
            actual = SlotMajorSpMV(compressed)(x)
            expected = _contract_spmv(compressed, x)
        nan = np.isnan(expected)
        assert nan.any() and not nan.all()
        assert np.array_equal(np.isnan(actual), nan)
        assert_bitwise(actual[~nan], expected[~nan])

    @ORIENTATIONS
    def test_no_warning_when_the_fold_meets_inf_minus_inf(self, row_major):
        gen = np.random.default_rng(7)
        compressed = _uniform_degree(row_major, 512, 2, 2, gen)
        compressed.data[:] = 1.0
        op = SlotMajorSpMV(compressed)
        assert op._slots and op._n_heavy == 0
        for x in (np.array([np.inf, -np.inf]), np.array([1e308, 1e308])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = op(x)
            assert_bitwise(out, _contract_spmv(compressed, x))

    @ORIENTATIONS
    def test_wrong_length_raises(self, row_major):
        op = SlotMajorSpMV(_uniform_degree(row_major, 300, 8, 2, np.random.default_rng(8)))
        for bad in (np.zeros(7), np.zeros(9), np.zeros((8, 1)), np.float64(1.0)):
            with pytest.raises(ShapeError):
                op(bad)

    @ORIENTATIONS
    @pytest.mark.parametrize("bad_index", (-1, 8))
    def test_out_of_range_index_rejected_at_build(self, row_major, bad_index):
        """The gather does not bounds-check per index, so an index that
        went out of range after the matrix was built must stop the
        build."""
        compressed = _uniform_degree(row_major, 300, 8, 2, np.random.default_rng(9))
        compressed.indices[5] = bad_index
        with pytest.raises(FormatError):
            SlotMajorSpMV(compressed)

    def test_x_is_read_not_written(self):
        compressed = _uniform_degree(True, 300, 8, 2, np.random.default_rng(10))
        x = np.arange(8.0)
        SlotMajorSpMV(compressed)(x)
        assert_bitwise(x, np.arange(8.0))

    @settings(max_examples=60, deadline=None)
    @given(compressed_matrices(), st.integers(0, 2**31 - 1))
    def test_matches_contraction(self, compressed, seed):
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, compressed.n_minor)
        _assert_spmv(compressed, x)

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(compressed_matrices(max_major=1500, max_minor=300), st.integers(0, 2**31 - 1))
    def test_matches_contraction_deep(self, compressed, seed):
        """With infinities in ``x``: the only NaNs are those that
        ``inf - inf`` and ``0 * inf`` make, which all carry one payload."""
        gen = np.random.default_rng(seed)
        pool = np.array(EDGE_VALUES)
        x = np.where(gen.random(compressed.n_minor) < 0.2,
                     pool[gen.integers(0, pool.size, compressed.n_minor)],
                     gen.uniform(-2.0, 2.0, compressed.n_minor))
        with np.errstate(invalid="ignore"):
            _assert_spmv(compressed, x)
