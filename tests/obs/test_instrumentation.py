"""Instrumented components emit their documented metric names.

These are regression tests for the names in docs/observability.md —
renaming a metric must be a deliberate, test-visible act.
"""

import numpy as np
import pytest

from repro.datasets import lidar_frame_pair
from repro.kdtree import KdTreeConfig, build_tree
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def workload():
    ref, qry = lidar_frame_pair(2_000, seed=7)
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=64))
    return tree, qry.xyz[:200]


class TestEngineMetrics:
    def test_approx_path_emits_documented_names(self, workload):
        tree, queries = workload
        with use_registry(MetricsRegistry()) as reg:
            knn_approx_batched(tree.flat(), queries, 4)
        flat = reg.as_dict()
        assert flat["engine.approx.calls"] == 1
        assert flat["engine.approx.queries"] == queries.shape[0]
        assert flat["engine.leaf_groups"] > 0
        assert flat["engine.approx.seconds.count"] == 1

    def test_exact_path_emits_documented_names(self, workload):
        tree, queries = workload
        with use_registry(MetricsRegistry()) as reg:
            knn_exact_batched(tree, queries, 4)
        flat = reg.as_dict()
        assert flat["engine.exact.calls"] == 1
        assert flat["engine.exact.queries"] == queries.shape[0]
        assert flat["engine.exact.bucket_scans"] > 0
        assert flat["engine.exact.frontier.count"] >= 1
        assert flat["engine.exact.seconds.count"] == 1

    def test_reselected_counts_rows_the_margin_cannot_certify(self, workload):
        tree, queries = workload
        with use_registry(MetricsRegistry()) as reg:
            knn_exact_batched(tree, queries, 4)
        # Distinct lidar points: every selection cut is certified.
        assert reg.as_dict().get("engine.select.reselected", 0) == 0
        points = np.zeros((64, 3))
        points[:4] = [[5.0, 0, 0], [0, 5.0, 0], [0, 0, 5.0], [-5.0, 0, 0]]
        dup_tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=8))
        with use_registry(MetricsRegistry()) as reg:
            knn_approx_batched(dup_tree.flat(), np.zeros((3, 3)), 4)
        # 60 exact duplicates in one bucket tie across every row's cut.
        assert reg.as_dict()["engine.select.reselected"] == 3

    def test_disabled_registry_observes_nothing(self, workload):
        tree, queries = workload
        # The default registry is the shared no-op: queries leave no trace.
        result, _ = knn_exact_batched(tree, queries, 4)
        assert result.n_queries == queries.shape[0]


class TestBuildMetrics:
    def test_builders_emit_documented_names(self):
        ref, _ = lidar_frame_pair(2_000, seed=9)
        with use_registry(MetricsRegistry()) as reg:
            build_tree(ref, KdTreeConfig(bucket_capacity=64, builder="vectorized"))
            build_tree(ref, KdTreeConfig(bucket_capacity=64, builder="legacy"))
        flat = reg.as_dict()
        assert flat["build.calls"] == 2
        assert flat["build.calls.vectorized"] == 1
        assert flat["build.calls.legacy"] == 1
        assert flat["build.points"] == 2 * ref.xyz.shape[0]
        assert flat["build.sorted_elements"] > 0
        assert flat["build.placement_traversals"] == 2 * ref.xyz.shape[0]
        assert flat["build.sample_size.count"] == 2
        assert flat["build.vectorized.seconds.count"] == 1
        assert flat["build.legacy.seconds.count"] == 1

    def test_incremental_update_emits_documented_names(self):
        from repro.kdtree import update_tree

        ref, qry = lidar_frame_pair(2_000, seed=10)
        config = KdTreeConfig(bucket_capacity=64)
        tree, _ = build_tree(ref, config)
        with use_registry(MetricsRegistry()) as reg:
            update_tree(tree, qry.xyz[:300], config)
        flat = reg.as_dict()
        assert flat["build.incremental.calls"] == 1
        assert flat["build.incremental.points"] == 300
        assert flat["build.incremental.seconds.count"] == 1


class TestSimMetrics:
    def test_dram_model_counts_accesses(self):
        from repro.sim import DramModel

        with use_registry(MetricsRegistry()) as reg:
            dram = DramModel()
            dram.access("Rd1", 0, 256, write=False)
            dram.access("Wr", 4096, 64, write=True)
        flat = reg.as_dict()
        assert flat["dram.accesses"] == dram.stats.accesses
        assert flat["dram.bytes"] == dram.stats.bytes
        assert flat["dram.data_cycles"] > 0

    def test_dram_built_before_enable_is_unobserved(self):
        from repro.sim import DramModel

        dram = DramModel()  # constructed with obs off -> handles not cached
        with use_registry(MetricsRegistry()) as reg:
            dram.access("Rd1", 0, 64, write=False)
        assert reg.as_dict() == {}

    def test_gather_caches_use_their_labels(self):
        from repro.arch.gather import ReadGatherCache, WriteGatherCache

        with use_registry(MetricsRegistry()) as reg:
            wg = WriteGatherCache(n_slots=1, slot_capacity=2)
            wg.insert(0)
            wg.insert(0)  # fills the slot -> natural flush
            wg.drain()
            rg = ReadGatherCache(n_slots=2, slot_capacity=4)
            rg.insert(1)
            rg.drain()
        flat = reg.as_dict()
        assert flat["cache.write_gather.inserts"] == 2
        assert flat["cache.write_gather.flushes"] >= 1
        assert flat["cache.read_gather.inserts"] == 1
        assert flat["cache.read_gather.flushed_items"] == 1

    def test_traversal_reports_aggregates(self):
        from repro.arch import BankedTreeCache, TreeCacheConfig, simulate_traversal
        from repro.datasets.synthetic import uniform_cloud

        rng = np.random.default_rng(9)
        cloud = uniform_cloud(500, rng=rng)
        tree, _ = build_tree(cloud, KdTreeConfig(bucket_capacity=32))
        cache = BankedTreeCache(tree, TreeCacheConfig(replicated_levels=2), rng=rng)
        with use_registry(MetricsRegistry()) as reg:
            report = simulate_traversal(tree, cloud.xyz, cache, n_workers=2)
        flat = reg.as_dict()
        assert flat["arch.traversal.runs"] == 1
        assert flat["arch.traversal.points"] == 500
        assert flat["arch.traversal.cycles"] == report.cycles


class TestIcpMetrics:
    def test_registration_emits_convergence_trace(self):
        from repro.datasets.synthetic import perturbed_pair
        from repro.icp import IcpConfig, icp_register

        rng = np.random.default_rng(0)
        ref, qry, _ = perturbed_pair(500, rng=rng, noise_std=0.0)
        with use_registry(MetricsRegistry()) as reg:
            result = icp_register(ref, qry, IcpConfig(knn="bruteforce"))
        flat = reg.as_dict()
        assert flat["icp.registrations"] == 1
        assert flat["icp.iterations"] == result.iterations
        assert flat["icp.rms.count"] == result.iterations
        assert flat["icp.rms.last"] == pytest.approx(result.rms_error)
        assert flat["icp.converged"] == 1.0
        assert flat["icp.correspondences"] > 0
        assert flat["icp.register.seconds.count"] == 1


class TestAsDictConvention:
    """Each stats object exposes the flat as_dict() view."""

    def test_dram_stats(self):
        from repro.sim import DramModel

        dram = DramModel()
        dram.access("Rd1", 0, 64, write=False)
        flat = dram.stats.as_dict()
        assert flat["accesses"] == 1
        assert any(key.startswith("streams.Rd1.") for key in flat)
        assert all(np.isscalar(v) for v in flat.values())

    def test_build_trace(self):
        ref, _ = lidar_frame_pair(500, seed=2)
        _, trace = build_tree(ref, KdTreeConfig(bucket_capacity=64))
        flat = trace.as_dict()
        assert flat["sorted_elements"] == trace.sorted_elements
        assert flat["n_sorts"] == len(trace.sort_sizes)

    def test_tree_stats(self):
        from repro.kdtree.stats import tree_stats

        ref, _ = lidar_frame_pair(500, seed=2)
        tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=64))
        flat = tree_stats(tree).as_dict()
        assert flat["n_points"] == 500
        assert "imbalance" in flat
