"""Bucketed k-d tree: the algorithmic core the QuickNN hardware executes.

The functional layer of the reproduction.  Everything here is plain
software — correct-by-construction trees and searches — while
:mod:`repro.arch` reuses these exact algorithms and adds the cycle and
memory-traffic accounting of the hardware.

Quick example::

    from repro.kdtree import KdTreeConfig, build_tree, knn_approx

    tree, trace = build_tree(reference_cloud, KdTreeConfig(bucket_capacity=256))
    result = knn_approx(tree, query_cloud, k=8)
"""

from repro.kdtree.blocked import (
    PARTITIONERS,
    BlockedBuildConfig,
    BlockedIndex,
    build_blocked,
)
from repro.kdtree.build import BuildTrace, build_tree, place_points
from repro.kdtree.config import KdTreeConfig
from repro.kdtree.engine import FlatKdTree, knn_approx_batched, knn_exact_batched
from repro.kdtree.flat_build import build_flat
from repro.kdtree.forest import KdForest, KdForestConfig
from repro.kdtree.incremental import UpdateTrace, reuse_tree, update_tree
from repro.kdtree.node import NO_NODE, KdNode, KdTree
from repro.kdtree.query_stats import MissDiagnosis, boundary_distances, diagnose_misses, leaf_regions
from repro.kdtree.search import (
    PAD_INDEX,
    BbfConfig,
    QueryResult,
    knn_approx,
    knn_approx_loop,
    knn_bbf,
    knn_exact,
    radius_search,
)
from repro.kdtree.snapshot import Snapshot, load_tree, save_tree
from repro.kdtree.stats import TreeStats, node_access_probability, tree_stats
from repro.kdtree.validate import TreeInvariantError, check_tree

__all__ = [
    "BbfConfig",
    "BlockedBuildConfig",
    "BlockedIndex",
    "BuildTrace",
    "FlatKdTree",
    "KdForest",
    "KdForestConfig",
    "KdNode",
    "KdTree",
    "KdTreeConfig",
    "NO_NODE",
    "PAD_INDEX",
    "PARTITIONERS",
    "QueryResult",
    "Snapshot",
    "TreeInvariantError",
    "TreeStats",
    "UpdateTrace",
    "build_blocked",
    "build_flat",
    "build_tree",
    "check_tree",
    "knn_approx",
    "knn_approx_batched",
    "knn_approx_loop",
    "knn_bbf",
    "knn_exact",
    "knn_exact_batched",
    "MissDiagnosis",
    "boundary_distances",
    "diagnose_misses",
    "leaf_regions",
    "load_tree",
    "node_access_probability",
    "place_points",
    "radius_search",
    "reuse_tree",
    "save_tree",
    "tree_stats",
    "update_tree",
]
