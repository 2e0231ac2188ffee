"""Host-side reuse: cached compressed ids, the fully-present contraction
path, the unmasked ``_finalize`` fast path, and the derived-operand
memos.

Each reuse must be invisible in the results: the fully-present
``mxv``/``vxm`` path is compared bitwise with the compacting path it
skips (kept here as the oracle) and with ``kernel="reference"``; the
unmasked ``_finalize`` with the general path it skips; the SPD-operator
memo and the shared reorder of the preprocessing variants
are counted and their outputs compared with fresh builds, and the
memoized config key and manifest serialization must equal fresh ones.
"""

import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest

import repro.arch.config as config_module
import repro.obs.manifest as manifest_module
from repro.arch.config import SparsepipeConfig
from repro.experiments.fig19 import VARIANTS
from repro.experiments.runner import ExperimentContext
from repro.formats.coo import COOMatrix
from repro.graphblas import Matrix, Vector, mxv, vxm
from repro.graphblas.ops import _finalize, _segment_reduce
from repro.matrices.suite import load_suite_matrix
from repro.obs import MetricsRegistry, RunManifest, build_manifest
from repro.preprocess import pipeline
from repro.semiring import SEMIRINGS
from repro.semiring.kernels import SlotMajorSpMV
from repro.workloads import solvers
from repro.workloads.registry import get_workload

SOLVERS = ("cg", "bgs", "gmres")
MATRICES = ("gy", "ro")


def _compacting_mxv(a, v, semiring, kernel="batched"):
    """``mxv`` as it was before the fully-present path."""
    csr = a.csr
    row_ids = np.repeat(np.arange(a.nrows, dtype=np.int64), csr.row_nnz())
    contributes = v.present[csr.indices]
    cols = csr.indices[contributes]
    rows = row_ids[contributes]
    products = semiring.mul(csr.data[contributes], v.values[cols])
    raw_values = _segment_reduce(semiring.add, products, rows, a.nrows, kernel)
    raw_present = np.zeros(a.nrows, dtype=bool)
    raw_present[rows] = True
    return _finalize(raw_values, raw_present, None, None, None)


def _compacting_vxm(v, a, semiring, kernel="batched"):
    """``vxm`` as it was before the fully-present path."""
    csc = a.csc
    col_ids = np.repeat(np.arange(a.ncols, dtype=np.int64), csc.col_nnz())
    contributes = v.present[csc.indices]
    rows = csc.indices[contributes]
    cols = col_ids[contributes]
    products = semiring.mul(v.values[rows], csc.data[contributes])
    raw_values = _segment_reduce(semiring.add, products, cols, a.ncols, kernel)
    raw_present = np.zeros(a.ncols, dtype=bool)
    raw_present[cols] = True
    return _finalize(raw_values, raw_present, None, None, None)


def assert_same_vector(a: Vector, b: Vector) -> None:
    assert a.present.tobytes() == b.present.tobytes()
    assert a.values.dtype == b.values.dtype
    assert a.values.tobytes() == b.values.tobytes()


@pytest.fixture
def holey_matrix(rng) -> Matrix:
    """Rectangular, with empty rows and columns and negative values."""
    dense = (rng.random((23, 17)) < 0.2) * rng.uniform(-2.0, 2.0, (23, 17))
    dense[[0, 5, 22], :] = 0.0
    dense[:, [3, 16]] = 0.0
    return Matrix.from_dense(dense)


class TestCompressedIds:
    def test_major_ids_built_once(self, holey_matrix):
        csr = holey_matrix.csr
        ids = csr.major_ids()
        assert csr.major_ids() is ids
        expected = np.repeat(np.arange(csr.nrows), csr.row_nnz())
        assert np.array_equal(ids, expected)
        assert np.array_equal(holey_matrix.csc.major_ids(),
                              np.repeat(np.arange(csr.ncols), holey_matrix.csc.col_nnz()))

    def test_csr_of_a_canonical_coo_shares_its_arrays(self, holey_matrix):
        coo, csr = holey_matrix.coo, holey_matrix.csr
        assert csr.indices is coo.cols and csr.data is coo.vals
        assert csr.major_ids() is coo.rows
        assert not np.shares_memory(holey_matrix.csc.indices, coo.rows)

    def test_to_coo_arrays_hands_out_a_copy(self, holey_matrix):
        rows, _, _ = holey_matrix.csr.to_coo_arrays()
        rows[:] = -1
        assert holey_matrix.csr.major_ids().min() >= 0


class TestFullyPresentContraction:
    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_mxv_matches_compacting_and_reference(self, name, holey_matrix, rng):
        semiring = SEMIRINGS[name]
        v = Vector(holey_matrix.ncols, rng.uniform(-2.0, 2.0, holey_matrix.ncols))
        fast = mxv(holey_matrix, v, semiring)
        assert_same_vector(fast, _compacting_mxv(holey_matrix, v, semiring))
        assert_same_vector(fast, mxv(holey_matrix, v, semiring, kernel="reference"))
        assert not fast.present[[0, 5, 22]].any()

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_vxm_matches_compacting_and_reference(self, name, holey_matrix, rng):
        semiring = SEMIRINGS[name]
        v = Vector(holey_matrix.nrows, rng.uniform(-2.0, 2.0, holey_matrix.nrows))
        fast = vxm(v, holey_matrix, semiring)
        assert_same_vector(fast, _compacting_vxm(v, holey_matrix, semiring))
        assert_same_vector(fast, vxm(v, holey_matrix, semiring, kernel="reference"))
        assert not fast.present[[3, 16]].any()

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_partial_vectors_still_compact(self, name, holey_matrix, rng):
        semiring = SEMIRINGS[name]
        present = rng.random(holey_matrix.ncols) < 0.5
        v = Vector(holey_matrix.ncols, rng.uniform(-2.0, 2.0, holey_matrix.ncols), present)
        assert_same_vector(mxv(holey_matrix, v, semiring),
                           _compacting_mxv(holey_matrix, v, semiring))


def _general_finalize(raw_values, raw_present):
    """``_finalize`` without a mask and without accumulation into
    ``out``, as it was before its fast path: an all-true mask, an empty
    vector and two boolean scatters."""
    size = raw_values.size
    landing = raw_present & np.ones(size, dtype=bool)
    result = Vector.empty(size)
    result.values[landing] = raw_values[landing]
    result.present[landing] = True
    return result


class TestFinalizeFastPath:
    """An unmasked, non-accumulating result keeps the raw arrays."""

    @pytest.mark.parametrize("dtype", (np.float64, np.float32, np.int64, bool))
    @pytest.mark.parametrize("presence", ("all", "none", "some"))
    @pytest.mark.parametrize("accum, with_out", ((None, False), (None, True),
                                                 (SEMIRINGS["mul_add"].add.op, False)))
    def test_matches_the_general_path(self, rng, dtype, presence, accum, with_out):
        size = 40
        pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
        with np.errstate(invalid="ignore"):
            raw_values = pool[rng.integers(0, pool.size, size)].astype(dtype)
        raw_present = {"all": np.ones(size, dtype=bool),
                       "none": np.zeros(size, dtype=bool),
                       "some": rng.random(size) < 0.5}[presence]
        out = Vector(size, np.full(size, 9.0)) if with_out else None
        expected = _general_finalize(raw_values, raw_present)
        actual = _finalize(raw_values.copy(), raw_present.copy(), None, accum, out)
        assert_same_vector(actual, expected)
        assert actual.size == size

    def test_keeps_fresh_arrays_without_copying(self):
        raw_values, raw_present = np.arange(5.0), np.ones(5, dtype=bool)
        result = _finalize(raw_values, raw_present, None, None, None)
        assert result.values is raw_values and result.present is raw_present


def _fresh(matrix_name: str) -> COOMatrix:
    """An equal copy of a suite matrix, shared with no context."""
    coo = load_suite_matrix(matrix_name)
    return COOMatrix(coo.shape, coo.rows.copy(), coo.cols.copy(), coo.vals.copy())


def _assert_same_prep(a, b) -> None:
    for x, y in ((a.matrix.rows, b.matrix.rows), (a.matrix.cols, b.matrix.cols),
                 (a.matrix.vals, b.matrix.vals)):
        assert x.tobytes() == y.tobytes()
    assert (a.permutation is None) == (b.permutation is None)
    if a.permutation is not None:
        assert np.array_equal(a.permutation, b.permutation)
    assert a.dual.csr == b.dual.csr and a.dual.csc == b.dual.csc
    assert (a.blocked is None) == (b.blocked is None)
    if a.blocked is not None:
        for field in ("block_rows", "block_cols", "block_ptr", "local_rows",
                      "local_cols", "vals", "row_block_ids", "col_block_ids"):
            assert np.array_equal(getattr(a.blocked, field), getattr(b.blocked, field))


class TestDerivedOperandMemos:
    def test_one_context_builds_each_operand_once(self, monkeypatch):
        spd_builds, reorders = [], []
        build_spd = solvers._build_spd_system

        def counting_spd(matrix):
            spd_builds.append(matrix)
            return build_spd(matrix)

        monkeypatch.setattr(solvers, "_build_spd_system", counting_spd)
        for name, algorithm in list(pipeline.REORDER_ALGORITHMS.items()):
            def counting(coo, _name=name, _algorithm=algorithm):
                reorders.append((coo.shape, _name))
                return _algorithm(coo)

            monkeypatch.setitem(pipeline.REORDER_ALGORITHMS, name, counting)

        context = ExperimentContext(workloads=SOLVERS + ("pr",), matrices=MATRICES)
        profiles = {(w, m): context.profile(w, m)
                    for w in SOLVERS + ("pr",) for m in MATRICES}
        preps = {(m, r, b): context.prepared(m, reorder=r, block_size=b)
                 for m in MATRICES for _, r, b in VARIANTS}
        for m in MATRICES:
            context.simulate("sparsepipe", "cg", m)

        assert len(spd_builds) == len(MATRICES)
        assert len({id(m) for m in spd_builds}) == len(MATRICES)
        shapes = {load_suite_matrix(m).shape for m in MATRICES}
        assert sorted(reorders) == sorted((s, "vanilla") for s in shapes)

        for (w, m), profile in profiles.items():
            assert profile == get_workload(w).profile(Matrix(_fresh(m)))
        for (m, r, b), prep in preps.items():
            _assert_same_prep(prep, pipeline.preprocess(_fresh(m), reorder=r, block_size=b))

    def test_block_size_variants_share_the_reorder(self):
        context = ExperimentContext(workloads=("pr",), matrices=("gy",))
        blocked = context.prepared("gy", reorder="vanilla", block_size=256)
        plain = context.prepared("gy", reorder="vanilla", block_size=None)
        assert plain.permutation is blocked.permutation
        assert plain.matrix is blocked.matrix and plain.dual is blocked.dual
        assert plain.blocked is None and plain.block_size is None
        assert blocked.with_block_size(64).blocked.block_size == 64

    def test_spd_system_shared_across_solvers(self, monkeypatch, rng):
        """cg, bgs and gmres share one SPD operator per matrix, built
        from one SPD system that is not kept; its product is bitwise
        the ``mxv`` of a freshly built system."""
        builds, handed_out = [], []
        build_spd, spd_operator = solvers._build_spd_system, solvers.spd_operator

        def counting_spd(matrix):
            builds.append(matrix)
            return build_spd(matrix)

        def recording_operator(matrix):
            handed_out.append(spd_operator(matrix))
            return handed_out[-1]

        monkeypatch.setattr(solvers, "_build_spd_system", counting_spd)
        monkeypatch.setattr(solvers, "spd_operator", recording_operator)
        matrix = Matrix(_fresh("gy"))
        for name in SOLVERS:
            get_workload(name).run_functional(matrix)

        assert len(builds) == 1
        assert len(handed_out) == len(SOLVERS)
        operator = handed_out[0]
        assert isinstance(operator, SlotMajorSpMV)
        assert all(other is operator for other in handed_out)
        assert list(matrix._derived.values()) == [operator]

        fresh = build_spd(Matrix(_fresh("gy")))
        x = rng.standard_normal(fresh.ncols)
        expected = mxv(fresh, Vector(x.size, x), SEMIRINGS["mul_add"]).to_dense()
        assert operator(x).tobytes() == expected.tobytes()


class TestConfigKeyMemo:
    def test_key_is_computed_once_and_matches_a_fresh_instance(self, monkeypatch):
        config = SparsepipeConfig(subtensor_cols=64)
        key = config.cache_key()

        def no_rehash(*args, **kwargs):
            raise AssertionError("cache_key re-serialized a frozen config")

        monkeypatch.setattr(config_module, "asdict", no_rehash)
        assert config.cache_key() == key
        monkeypatch.undo()
        assert SparsepipeConfig(subtensor_cols=64).cache_key() == key

    def test_memo_is_not_part_of_the_value(self):
        config = SparsepipeConfig()
        before = asdict(config)
        config.cache_key()
        assert asdict(config) == before
        assert config == SparsepipeConfig() and hash(config) == hash(SparsepipeConfig())
        assert "_cache_key" not in repr(config)
        other = replace(config, eager_is=False)
        assert other.cache_key() != config.cache_key()
        assert pickle.loads(pickle.dumps(config)).cache_key() == config.cache_key()


class TestManifestMemo:
    @staticmethod
    def _manifest(**kwargs):
        registry = MetricsRegistry()
        registry.counter("sim.cycles").inc(100)
        fields = dict(
            arch="sparsepipe", workload="bfs", matrix="gy", config="cfgkey",
            reorder="vanilla", block_size=256, registry=registry, seed=3,
            wall_time_s=0.5,
            faults=({"code": "SP601", "severity": "warning", "message": "m",
                     "location": "", "hint": ""},),
        )
        fields.update(kwargs)
        return build_manifest(**fields)

    def test_serialized_once(self, monkeypatch):
        manifest = self._manifest()
        doc, digest = manifest.to_dict(), manifest.digest()

        def no_reserialize(*args, **kwargs):
            raise AssertionError("a frozen manifest was serialized again")

        monkeypatch.setattr(manifest_module, "asdict", no_reserialize)
        assert manifest.to_dict() == doc
        assert manifest.digest() == digest
        assert manifest.stable_dict() == {
            k: v for k, v in doc.items()
            if k not in manifest._UNSTABLE and k != "digest"
        }

    def test_hands_out_copies(self):
        manifest = self._manifest()
        doc = manifest.to_dict()
        doc["arch"] = "mutated"
        doc["faults"][0]["code"] = "mutated"
        manifest.stable_dict()["seed"] = 99
        again = manifest.to_dict()
        assert again["arch"] == "sparsepipe"
        assert again["faults"][0]["code"] == "SP601"
        assert manifest.stable_dict()["seed"] == 3
        assert manifest.faults[0]["code"] == "SP601"

    @pytest.mark.parametrize("serve", ("served_from_cache",))
    def test_replaced_manifests_start_fresh(self, serve):
        manifest = self._manifest()
        original = manifest.to_dict()
        served = getattr(manifest, serve)()
        assert "_plain_memo" not in vars(served)
        doc = served.to_dict()
        assert doc["from_cache"] is True and original["from_cache"] is False
        fresh = RunManifest.from_dict(doc)
        assert fresh.digest() == served.digest() == manifest.digest()
        assert fresh.to_dict() == doc

    def test_memo_is_not_part_of_the_value(self):
        manifest = self._manifest()
        untouched = self._manifest()
        manifest.to_dict()
        assert manifest == untouched
        assert "_plain_memo" not in repr(manifest)
        assert asdict(manifest) == asdict(untouched)
        assert pickle.loads(pickle.dumps(manifest)).to_dict() == manifest.to_dict()
