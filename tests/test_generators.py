"""Tests for the matrix generators and the Table-I suite."""

import numpy as np
import pytest

from repro.matrices import (
    SUITE,
    banded_mesh,
    bipartite_block,
    circuit_like,
    clique_overlap,
    erdos_renyi,
    grid_2d,
    load_suite_matrix,
    power_law,
    rmat,
    road_network,
    suite_names,
)
from repro.oei import reuse_footprint


class TestGenerators:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: rmat(200, 1500, seed=1),
            lambda: erdos_renyi(200, 1500, seed=1),
            lambda: power_law(200, 1500, seed=1),
            lambda: banded_mesh(200, 10, 1500, seed=1),
            lambda: road_network(200, 600, seed=1),
            lambda: circuit_like(200, 1200, seed=1),
            lambda: clique_overlap(200, 1500, clique_size=10, seed=1),
            lambda: bipartite_block(200, 1500, seed=1),
        ],
        ids=["rmat", "er", "powerlaw", "banded", "road", "circuit", "clique", "bipartite"],
    )
    def test_basic_invariants(self, build):
        coo = build()
        assert coo.shape == (200, 200)
        assert coo.nnz > 0
        # No self-loops, coordinates in range, deduplicated.
        assert np.all(coo.rows != coo.cols)
        dedup = coo.deduplicate()
        assert dedup.nnz == coo.nnz

    def test_deterministic(self):
        a = rmat(100, 500, seed=7)
        b = rmat(100, 500, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.vals, b.vals)

    def test_seed_changes_output(self):
        a = rmat(100, 500, seed=7)
        b = rmat(100, 500, seed=8)
        assert not (
            a.nnz == b.nnz and np.array_equal(a.rows, b.rows)
        )

    def test_nnz_close_to_requested(self):
        coo = erdos_renyi(300, 2000, seed=3)
        assert 0.8 * 2000 <= coo.nnz <= 2000

    def test_banded_respects_bandwidth(self):
        coo = banded_mesh(300, 7, 2000, seed=3)
        assert np.abs(coo.rows - coo.cols).max() <= 7

    def test_grid_2d_degree(self):
        coo = grid_2d(10)
        degrees = np.bincount(coo.rows, minlength=100)
        assert degrees.max() <= 4
        assert degrees.min() >= 2

    def test_power_law_lower_bias(self):
        coo = power_law(300, 3000, lower_bias=1.0, seed=5)
        below = np.count_nonzero(coo.rows > coo.cols)
        assert below / coo.nnz > 0.95

    def test_bipartite_block_corner_mass(self):
        coo = bipartite_block(400, 4000, split=0.45, corner_share=0.9, seed=2)
        k = int(400 * 0.45)
        corner = np.count_nonzero((coo.rows >= k) & (coo.cols < k))
        assert corner / coo.nnz > 0.7

    def test_rmat_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            rmat(10, 20, a=0.6, b=0.3, c=0.3)

    def test_positive_values(self):
        coo = road_network(200, 600, seed=1)
        assert np.all(coo.vals > 0)


class TestSuite:
    def test_names_in_paper_order(self):
        assert suite_names() == ["ca", "gy", "g2", "co", "bu", "wi", "ad", "ro", "eu"]

    def test_load_is_cached(self):
        assert load_suite_matrix("gy") is load_suite_matrix("gy")

    def test_unknown_matrix(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            load_suite_matrix("zz")

    @pytest.mark.parametrize("name", ["ca", "gy", "g2", "ro"])
    def test_matrices_are_square_nonempty(self, name):
        m = load_suite_matrix(name)
        assert m.nrows == m.ncols
        assert m.nnz > 1000

    def test_footprint_ordering_matches_paper(self):
        """The qualitative Table-I result: bu/ca/wi large, roads tiny."""
        pct = {
            name: reuse_footprint(load_suite_matrix(name)).avg_pct
            for name in suite_names()
        }
        assert pct["bu"] > pct["ca"] > pct["co"]
        assert pct["wi"] > pct["co"]
        assert pct["ro"] < 3.0
        assert pct["gy"] < 5.0
        assert pct["bu"] > 30.0


class TestNewGenerators:
    def test_watts_strogatz_degree(self):
        from repro.matrices import watts_strogatz

        coo = watts_strogatz(200, k=6, rewire=0.0, seed=1)
        # Pure ring lattice: every vertex has degree exactly k.
        degrees = np.bincount(coo.rows, minlength=200)
        assert np.all(degrees == 6)

    def test_watts_strogatz_rewire_scatters(self):
        from repro.matrices import watts_strogatz
        from repro.oei import reuse_footprint

        local = reuse_footprint(watts_strogatz(300, k=6, rewire=0.0, seed=2))
        scattered = reuse_footprint(watts_strogatz(300, k=6, rewire=0.8, seed=2))
        assert scattered.avg_pct > local.avg_pct

    def test_barabasi_albert_has_hubs(self):
        from repro.matrices import barabasi_albert

        coo = barabasi_albert(300, m=3, seed=3)
        degrees = np.bincount(coo.rows, minlength=300)
        # Preferential attachment: the max degree dwarfs the median.
        assert degrees.max() > 4 * np.median(degrees[degrees > 0])

    def test_barabasi_albert_connected_shape(self):
        from repro.matrices import barabasi_albert

        coo = barabasi_albert(100, m=2, seed=4)
        assert coo.shape == (100, 100)
        assert coo.nnz >= 2 * 97  # ~m edges per arriving vertex, both dirs


class TestAutotune:
    def test_returns_candidate_and_result(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.config import SparsepipeConfig
        from repro.arch.profile import WorkloadProfile
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True,
            n_iterations=8, path_ewise_ops=2,
        )
        coo = rmat(500, 4000, seed=5)
        best, result = autotune_subtensor_cols(
            profile, coo, SparsepipeConfig(), candidates=(16, 64, 256)
        )
        assert best in (16, 64, 256)
        assert result.n_iterations == 8

    def test_best_never_worse_than_fixed_candidates(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.config import SparsepipeConfig
        from repro.arch.profile import WorkloadProfile
        from repro.arch.simulator import SparsepipeSimulator
        from dataclasses import replace
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True,
            n_iterations=6, path_ewise_ops=2,
        )
        coo = rmat(400, 3000, seed=6)
        candidates = (16, 128)
        best, tuned = autotune_subtensor_cols(
            profile, coo, SparsepipeConfig(), candidates=candidates,
            probe_iterations=6,  # probe == full run -> exact choice
        )
        fixed = [
            SparsepipeSimulator(
                replace(SparsepipeConfig(), subtensor_cols=c)
            ).run(profile, coo).cycles
            for c in candidates
        ]
        assert tuned.cycles == pytest.approx(min(fixed))

    def test_pool_probes_pick_the_serial_width(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.config import SparsepipeConfig
        from repro.arch.profile import WorkloadProfile
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True,
            n_iterations=4, path_ewise_ops=2,
        )
        coo = rmat(400, 3000, seed=6)
        runs = [
            autotune_subtensor_cols(
                profile, coo, SparsepipeConfig(),
                candidates=(16, 64, 64, 256), max_workers=workers)
            for workers in (None, 2)
        ]
        (serial_best, serial), (pool_best, pooled) = runs
        assert pool_best == serial_best
        assert pooled == serial

    def test_rejects_empty_candidates(self):
        from repro.arch.autotune import autotune_subtensor_cols
        from repro.arch.profile import WorkloadProfile
        from repro.errors import ConfigError
        from repro.matrices import rmat

        profile = WorkloadProfile(
            name="pr", semiring_name="mul_add", has_oei=True, n_iterations=2,
        )
        with pytest.raises(ConfigError):
            autotune_subtensor_cols(profile, rmat(50, 200, seed=1), candidates=())
