"""The canonical-order kernel against the lexsort implementations it
replaced.

``COOMatrix.deduplicate`` and ``coo_to_compressed`` share one kernel
(:func:`repro.formats.convert.canonical_order`) that skips the sort for
already-canonical input, merges input made of two sorted runs (one
stable argsort of the fused key, which timsort merges in a single pass)
and otherwise radix-sorts the coordinates. ``TestMergePath`` holds the
merge to the radix path's permutation and results. The oracles below are the previous implementations, kept verbatim apart
from one repair: the old ``deduplicate`` found duplicate boundaries on
the fused key ``row * ncols + col``, which wraps around for shapes with
``nrows * ncols >= 2**63``; the oracle compares coordinates instead,
as the old ``coo_to_compressed`` did. Every comparison is bitwise and
includes the dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.formats.convert as convert
from repro.formats.convert import canonical_order, coo_to_compressed, stable_order
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.graphblas.matrix import Matrix
from repro.matrices.suite import load_suite_matrix
from repro.workloads.gcn import GCN
from repro.workloads.solvers import spd_system
from tests.strategies import raw_coo_entries


def _old_deduplicate(shape, rows, cols, vals):
    if rows.size == 0:
        return rows, cols, vals
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    boundaries = np.concatenate(([True], ~same))
    group = np.cumsum(boundaries) - 1
    summed = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
    np.add.at(summed, group, vals)
    urows = rows[boundaries]
    ucols = cols[boundaries]
    keep = summed != 0
    return urows[keep], ucols[keep], summed[keep]


def _old_coo_to_compressed(n_major, major, minor, vals):
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    vals = np.asarray(vals)
    order = np.lexsort((minor, major))
    major, minor, vals = major[order], minor[order], vals[order]
    if major.size:
        keys_equal = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
        if keys_equal.any():
            boundaries = np.concatenate(([True], ~keys_equal))
            group = np.cumsum(boundaries) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
            np.add.at(summed, group, vals)
            major, minor, vals = major[boundaries], minor[boundaries], summed
    counts = np.bincount(major, minlength=n_major)
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, minor, vals


def assert_bitwise(actual, expected):
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        assert a.shape == e.shape
        assert a.tobytes() == e.tobytes()


def _huge(shape) -> bool:
    return shape[0] * shape[1] >= 2**63


class TestAgainstLexsortOracle:
    @settings(max_examples=300, deadline=None)
    @given(raw_coo_entries())
    def test_deduplicate(self, entries):
        shape, rows, cols, vals = entries
        coo = COOMatrix(shape, rows, cols, vals)
        dedup = coo.deduplicate()
        assert dedup.shape == coo.shape
        assert_bitwise(
            (dedup.rows, dedup.cols, dedup.vals),
            _old_deduplicate(shape, rows, cols, vals),
        )

    @settings(max_examples=300, deadline=None)
    @given(raw_coo_entries())
    def test_coo_to_compressed_row_major(self, entries):
        (nrows, ncols), rows, cols, vals = entries
        assert_bitwise(
            coo_to_compressed(nrows, ncols, rows, cols, vals),
            _old_coo_to_compressed(nrows, rows, cols, vals),
        )

    @settings(max_examples=200, deadline=None)
    @given(raw_coo_entries())
    def test_coo_to_compressed_column_major(self, entries):
        (nrows, ncols), rows, cols, vals = entries
        if _huge((nrows, ncols)):
            return  # a 2**62-slice indptr does not fit in memory
        assert_bitwise(
            coo_to_compressed(ncols, nrows, cols, rows, vals),
            _old_coo_to_compressed(ncols, cols, rows, vals),
        )

    @settings(max_examples=100, deadline=None)
    @given(raw_coo_entries())
    def test_output_is_fresh(self, entries):
        shape, rows, cols, vals = entries
        coo = COOMatrix(shape, rows, cols, vals)
        dedup = coo.deduplicate()
        for before, after in ((coo.rows, dedup.rows), (coo.cols, dedup.cols),
                              (coo.vals, dedup.vals)):
            assert not np.shares_memory(before, after)

    @settings(max_examples=200, deadline=None)
    @given(raw_coo_entries())
    def test_canonical_is_deduplicate_without_the_copy(self, entries):
        shape, rows, cols, vals = entries
        coo = COOMatrix(shape, rows, cols, vals)
        canonical, dedup = coo.canonical(), coo.deduplicate()
        assert_bitwise((canonical.rows, canonical.cols, canonical.vals),
                       (dedup.rows, dedup.cols, dedup.vals))
        assert canonical.canonical() is canonical
        already = np.array_equal(rows, dedup.rows) and np.array_equal(cols, dedup.cols)
        assert (canonical is coo) == (already and vals.size == dedup.vals.size)

    def test_explicit_zeros_dropped_by_deduplicate_kept_by_compression(self):
        rows = np.array([0, 0, 1, 1])
        cols = np.array([1, 1, 0, 2])
        vals = np.array([2.0, -2.0, -0.0, 3.0])
        dedup = COOMatrix((2, 3), rows, cols, vals).deduplicate()
        assert dedup.vals.tolist() == [3.0]
        indptr, indices, data = coo_to_compressed(2, 3, rows, cols, vals)
        assert indices.tolist() == [1, 0, 2]
        assert data.tolist() == [0.0, -0.0, 3.0]


class TestLexsortFallback:
    def test_huge_shape_takes_lexsort(self):
        """A shape whose fused key would overflow an int64 sorts to the
        lexsort result."""
        shape = (3, 2**62 + 5)
        rows = np.array([2, 0, 2, 1, 0])
        cols = np.array([2**62, 7, 2**62, 2**62 + 4, 7])
        vals = np.array([1.0, 2.0, 3.0, 4.0, -2.0])
        expected = _old_deduplicate(shape, rows, cols, vals)
        dedup = COOMatrix(shape, rows, cols, vals).deduplicate()
        assert_bitwise((dedup.rows, dedup.cols, dedup.vals), expected)
        assert dedup.cols.tolist() == [2**62 + 4, 2**62]

    def test_fused_key_matches_lexsort_permutation(self):
        gen = np.random.default_rng(3)
        rows = gen.integers(0, 50, 5000)
        cols = gen.integers(0, 70, 5000)
        assert np.array_equal(
            stable_order(50, 70, rows, cols), np.lexsort((cols, rows))
        )


class TestCanonicalInputIsNeverSorted:
    @pytest.fixture
    def no_sorts(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("canonical input was sorted")

        monkeypatch.setattr(np, "argsort", boom)
        monkeypatch.setattr(np, "lexsort", boom)

    def test_deduplicate_compress_and_wrap(self, small_coo, no_sorts):
        dedup = small_coo.deduplicate()
        assert np.array_equal(dedup.rows, small_coo.rows)
        csr = CSRMatrix.from_coo(dedup)
        assert csr.nnz == small_coo.nnz
        matrix = Matrix(dedup)
        assert matrix.csr == csr

    def test_huge_canonical_shape(self, no_sorts):
        rows = np.array([0, 0, 1])
        cols = np.array([3, 2**62, 0])
        out = canonical_order(2, 2**62 + 1, rows, cols, np.ones(3))
        assert out[1].tolist() == [3, 2**62, 0]

    def test_unsorted_input_does_sort(self, no_sorts):
        coo = COOMatrix((2, 2), np.array([1, 0]), np.array([0, 1]), np.ones(2))
        with pytest.raises(AssertionError, match="sorted"):
            coo.deduplicate()


# ----------------------------------------------------------------------
# Two sorted runs
# ----------------------------------------------------------------------
def _radix_canonical(n_major, n_minor, major, minor, vals):
    """The radix path of ``canonical_order``: ``stable_order``, then
    duplicates folded in that order from zero."""
    order = stable_order(n_major, n_minor, major, minor)
    major, minor, vals = major[order], minor[order], vals[order]
    repeats = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
    if repeats.any():
        boundaries = np.concatenate(([True], ~repeats))
        group = np.cumsum(boundaries) - 1
        summed = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
        np.add.at(summed, group, vals)
        return major[boundaries], minor[boundaries], summed
    return major, minor, vals


def _graph(seed: int, n: int = 300, nnz: int = 2000) -> Matrix:
    gen = np.random.default_rng(seed)
    return Matrix(COOMatrix((n, n), gen.integers(0, n, nnz), gen.integers(0, n, nnz),
                            gen.uniform(-2.0, 2.0, nnz)))


def _plus_identity(matrix):
    """gcn's ``A + I``: A's entries, then the diagonal."""
    n, coo, diag = matrix.nrows, matrix.coo, np.arange(matrix.nrows)
    return (n, n, np.concatenate((coo.rows, diag)), np.concatenate((coo.cols, diag)),
            np.concatenate((coo.vals, np.ones(n))))


def _with_transpose(matrix):
    """The SPD build's ``A`` then ``Aᵀ``, read row-sorted off A's CSC."""
    n, coo, csc = matrix.nrows, matrix.coo, matrix.csc
    return (n, n, np.concatenate((coo.rows, csc.major_ids())),
            np.concatenate((coo.cols, csc.indices)),
            np.concatenate((coo.vals, csc.data)) * -0.5)


def _spd_plus_diagonal(matrix):
    """The SPD build's symmetrized part, then its diagonal."""
    n, _, rows, cols, vals = _with_transpose(matrix)
    sym = COOMatrix((n, n), rows, cols, vals).canonical()
    diag = np.arange(n)
    return (n, n, np.concatenate((sym.rows, diag)), np.concatenate((sym.cols, diag)),
            np.concatenate((sym.vals, diag - 3.0)))


def _runs_with_duplicates_and_zeros():
    """Two sorted runs that share coordinates, with explicit zeros of
    both signs and a pair that cancels."""
    rows = np.array([0, 0, 1, 2, 2, 3, 0, 1, 1, 2, 3, 3])
    cols = np.array([1, 4, 2, 0, 3, 3, 1, 2, 5, 0, 3, 4])
    vals = np.array([2.0, -0.0, 1.5, 0.0, 7.0, -0.0, -2.0, 0.0, -0.0, 3.0, 0.0, 1.0])
    return 4, 6, rows, cols, vals


def _runs_with_repeats_inside():
    """Two sorted runs that each repeat keys, so one coordinate gathers
    three or more values and a sort that is not stable changes the
    sum's last bits."""
    gen = np.random.default_rng(4)
    key = np.concatenate([np.sort(gen.integers(0, 600, 3000)) for _ in range(2)])
    return 20, 30, key // 30, key % 30, gen.uniform(-1.0, 1.0, key.size)


TWO_RUNS = {
    "a_plus_i": lambda: _plus_identity(_graph(0)),
    "a_with_transpose": lambda: _with_transpose(_graph(1)),
    "spd_plus_diagonal": lambda: _spd_plus_diagonal(_graph(2)),
    "suite_a_with_transpose": lambda: _with_transpose(Matrix(load_suite_matrix("gy"))),
    "cross_run_duplicates": _runs_with_duplicates_and_zeros,
    "repeats_inside_runs": _runs_with_repeats_inside,
}


@pytest.fixture
def forbid_radix(monkeypatch):
    """Call to make any later ``stable_order`` call fail the test."""
    def boom(*args):
        raise AssertionError("two sorted runs took the radix sort")

    return lambda: monkeypatch.setattr(convert, "stable_order", boom)


class TestMergePath:
    @pytest.mark.parametrize("case", sorted(TWO_RUNS))
    def test_two_runs_match_the_radix_path(self, case):
        n_major, n_minor, major, minor, vals = TWO_RUNS[case]()
        key = major * n_minor + minor
        assert np.count_nonzero(key[1:] < key[:-1]) == 1
        assert np.array_equal(np.argsort(key, kind="stable"),
                              stable_order(n_major, n_minor, major, minor))
        assert_bitwise(canonical_order(n_major, n_minor, major, minor, vals),
                       _radix_canonical(n_major, n_minor, major, minor, vals))

    def test_cross_run_duplicates_fold_in_run_order(self):
        major, minor, vals = canonical_order(*_runs_with_duplicates_and_zeros())
        assert list(zip(major.tolist(), minor.tolist())) == [
            (0, 1), (0, 4), (1, 2), (1, 5), (2, 0), (2, 3), (3, 3), (3, 4)]
        # Every value folds from +0.0 once any coordinate repeats, so a
        # lone -0.0 comes out +0.0.
        assert vals.tobytes() == np.array(
            [0.0, 0.0, 1.5, 0.0, 3.0, 7.0, 0.0, 1.0]).tobytes()

    def test_gcn_operator_is_merged(self, forbid_radix):
        matrix = Matrix(load_suite_matrix("gy"))
        forbid_radix()
        assert GCN._normalized(matrix).nnz == matrix.nnz + matrix.nrows

    def test_spd_system_is_merged(self, forbid_radix):
        matrix = Matrix(load_suite_matrix("gy"))
        matrix.csc  # the transpose is one sort per matrix, made before
        forbid_radix()
        assert spd_system(matrix).nnz > matrix.nnz

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    def test_more_descents_take_the_radix_sort(self, runs, seed):
        gen = np.random.default_rng(seed)
        key = np.concatenate([np.sort(gen.integers(0, 40 * 30, gen.integers(2, 30)))
                              for _ in range(runs)])
        descents = int(np.count_nonzero(key[1:] < key[:-1]))
        major, minor = key // 30, key % 30
        vals = gen.uniform(-1.0, 1.0, key.size)
        calls = []

        def counting(*args):
            calls.append(args)
            return stable_order(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convert, "stable_order", counting)
            result = canonical_order(40, 30, major, minor, vals)
        assert len(calls) == (descents >= 2)
        assert_bitwise(result, _radix_canonical(40, 30, major, minor, vals))
