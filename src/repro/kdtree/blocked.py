"""Blocked out-of-core build + query: million-point clouds on a budget.

Every other layer of the repo measures KITTI-frame scale (~30k points);
accumulated maps are 1M-100M.  Following FractalCloud's
partition-parallel, locality-first argument, this module splits a huge
cloud spatially, builds one :class:`~repro.kdtree.engine.FlatKdTree`
per block with the level-synchronous builder — optionally on a pool of
threads, since the NumPy-bound builder releases the GIL — and stitches
the blocks under a top-level :class:`BlockedIndex` router:

* **Partitioning** is a string knob (:data:`PARTITIONERS`): ``"grid"``
  bins into a uniform cell grid sized to the cloud's extents;
  ``"kd-cut"`` runs shallow median cuts over a sample, so blocks track
  the density rather than the bounding box.  Both label points
  chunk-wise, so the source cloud is never required in RAM — a path to
  a ``.npy`` file is read through ``np.load(..., mmap_mode="r")``.
* **Per-block trees** persist as uncompressed
  :class:`~repro.kdtree.snapshot.Snapshot` files that queries load
  with ``mmap_mode="r"`` — only the pages a search touches are
  resident — behind a bounded block cache evicted through the shared
  :data:`repro.eviction.EVICTION` registry.
* **Queries stay exact.**  Each query visits blocks in ascending order
  of squared AABB lower bound and stops as soon as the next bound
  exceeds its current k-th distance; rows merge through
  :func:`~repro.kdtree.ranking.merge_topk` in the one neighbour order
  (ascending distance, ties by ascending global id; a block's local
  ids ascend with its global ids), so answers are bit-identical to a
  monolithic exact build, indices and distances, duplicate coordinates
  included — the same contract sharded serving keeps.

Typical use::

    from repro.kdtree import BlockedBuildConfig, build_blocked

    index = build_blocked(
        "map_1M.npy",
        BlockedBuildConfig(target_block_points=250_000, workers=4),
        block_dir="blocks/",
    )
    result = index.query(queries, k=8)
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.eviction import EVICTION
from repro.geometry import PointCloud
from repro.kdtree.config import KdTreeConfig
from repro.kdtree.engine import FlatKdTree, knn_budgeted
from repro.kdtree.flat_build import build_flat
from repro.kdtree.ranking import PAD_INDEX, merge_topk
from repro.kdtree.search import QueryResult, _as_query_array
from repro.kdtree.snapshot import Snapshot
from repro.obs import get_registry
from repro.registry import Registry

__all__ = [
    "PARTITIONERS",
    "BlockedBuildConfig",
    "BlockedIndex",
    "build_blocked",
]

#: Manifest schema version written by :func:`build_blocked`.
MANIFEST_VERSION = 1
_MANIFEST_NAME = "manifest.json"

#: Relative slack applied to the k-th squared distance before pruning a
#: block: rounding in the engine's float64 distance recomputation can
#: make a boundary candidate's squared distance land an ulp under its
#: AABB lower bound, and extra visits are correct while a wrong prune
#: is not.
_PRUNE_SLACK = 1e-12

#: Resident bytes of the engine's lazily derived bucket store
#: (``FlatKdTree.store``): per point, the bucket-ordered raw and
#: bucket-local coordinates (f64x3 each) and the local squared norm
#: (f64); per bucket, its centre (f64x3) and largest squared radius
#: (f64).  Unlike the mapped structural arrays the store is always
#: heap-allocated on first query, so the block cache budgets for it
#: explicitly.
_DERIVED_BYTES_PER_POINT = 56
_DERIVED_BYTES_PER_BUCKET = 32


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
#: Spatial partitioners: ``fit(sample, lo, hi, n_blocks) -> (n_cells,
#: assign)`` where ``assign(chunk_xyz) -> labels`` in ``[0, n_cells)``.
#: Cells left empty by the full cloud are dropped afterwards, so a
#: partitioner only has to cover space, not balance exactly.
PARTITIONERS: Registry = Registry("partitioner")

Assign = Callable[[np.ndarray], np.ndarray]


@PARTITIONERS.register("grid")
def _grid_fit(
    sample: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_blocks: int
) -> tuple[int, Assign]:
    """Uniform cells, per-axis counts proportional to the extents."""
    extent = np.maximum(hi - lo, 0.0)
    counts = np.ones(3, dtype=np.int64)
    # Greedily split the axis whose current cell edge is longest until
    # the grid has capacity for the requested block count.
    while counts.prod() < n_blocks:
        edge = np.where(extent > 0, extent / counts, -1.0)
        axis = int(np.argmax(edge))
        if edge[axis] <= 0:  # degenerate cloud (all points coincide)
            break
        counts[axis] += 1
    span = np.where(extent > 0, extent, 1.0)
    strides = np.array(
        [counts[1] * counts[2], counts[2], 1], dtype=np.int64
    )

    def assign(chunk: np.ndarray) -> np.ndarray:
        scaled = (chunk - lo) / span * counts
        cells = np.clip(scaled.astype(np.int64), 0, counts - 1)
        return cells @ strides

    return int(counts.prod()), assign


@PARTITIONERS.register("kd-cut")
def _kd_cut_fit(
    sample: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_blocks: int
) -> tuple[int, Assign]:
    """Shallow median cuts over the sample, widest extent first.

    The leaf with the most sample points is split at its median along
    its widest dimension until there are ``n_blocks`` leaves (or no
    splittable leaf remains), the same recursion the serve layer's
    ``spatial`` shard strategy uses — but expressed as a tiny array
    tree so assignment of an arbitrary chunk is a vectorized descent.
    """
    dims = [0]
    thresholds = [0.0]
    left: list[int] = [-1]
    right: list[int] = [-1]
    members: dict[int, np.ndarray] = {0: sample}

    while len(members) < n_blocks:
        splittable = {
            node: pts for node, pts in members.items() if pts.shape[0] > 1
        }
        if not splittable:
            break
        node = max(splittable, key=lambda n: splittable[n].shape[0])
        pts = members.pop(node)
        spread = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spread))
        if spread[dim] <= 0:
            members[node] = pts  # all duplicates; nothing to cut
            break
        threshold = float(np.median(pts[:, dim]))
        mask = pts[:, dim] < threshold
        if not mask.any() or mask.all():
            # Median coincides with the extreme: split on the mean so
            # both sides are non-empty.
            threshold = float(pts[:, dim].mean(dtype=np.float64))
            mask = pts[:, dim] < threshold
        if not mask.any() or mask.all():
            members[node] = pts
            break
        dims[node] = dim
        thresholds[node] = threshold
        for child_mask in (mask, ~mask):
            child = len(dims)
            dims.append(0)
            thresholds.append(0.0)
            left.append(-1)
            right.append(-1)
            members[child] = pts[child_mask]
            if left[node] == -1:
                left[node] = child
            else:
                right[node] = child

    leaf_ids = {node: i for i, node in enumerate(sorted(members))}
    dim_arr = np.array(dims, dtype=np.int64)
    thr_arr = np.array(thresholds, dtype=np.float64)
    left_arr = np.array(left, dtype=np.int64)
    right_arr = np.array(right, dtype=np.int64)
    leaf_arr = np.full(len(dims), -1, dtype=np.int64)
    for node, block in leaf_ids.items():
        leaf_arr[node] = block

    def assign(chunk: np.ndarray) -> np.ndarray:
        current = np.zeros(chunk.shape[0], dtype=np.int64)
        active = leaf_arr[current] == -1
        while active.any():
            nodes = current[active]
            go_left = (
                chunk[active, dim_arr[nodes]] < thr_arr[nodes]
            )
            current[active] = np.where(
                go_left, left_arr[nodes], right_arr[nodes]
            )
            active = leaf_arr[current] == -1
        return leaf_arr[current]

    return len(leaf_ids), assign


# ----------------------------------------------------------------------
# Build configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockedBuildConfig:
    """Knobs of :func:`build_blocked`.

    Parameters
    ----------
    target_block_points:
        Aimed-for points per block; the block count defaults to
        ``ceil(n / target_block_points)``.
    n_blocks:
        Explicit block count (overrides ``target_block_points``).
    partitioner:
        Spatial split, from :data:`PARTITIONERS` (``"grid"`` or
        ``"kd-cut"``).
    workers:
        Threads for the per-block tree builds.  ``1`` builds inline;
        more build blocks concurrently (the builder's NumPy passes
        release the GIL).  Block files are byte-identical for any
        worker count.
    tree:
        Per-block :class:`~repro.kdtree.config.KdTreeConfig`.
    sample_size:
        Points sampled to fit the partitioner.
    chunk_points:
        Points staged per labeling/gather chunk — the build's RAM
        high-water mark scales with this plus one block, not the cloud.
    """

    target_block_points: int = 250_000
    n_blocks: int | None = None
    partitioner: str = "grid"
    workers: int = 1
    tree: KdTreeConfig = field(default_factory=KdTreeConfig)
    sample_size: int = 65_536
    chunk_points: int = 1_000_000

    def __post_init__(self):
        PARTITIONERS.check(self.partitioner)
        if self.target_block_points < 1:
            raise ValueError("target_block_points must be positive")
        if self.n_blocks is not None and self.n_blocks < 1:
            raise ValueError("n_blocks must be positive when given")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if self.chunk_points < 1:
            raise ValueError("chunk_points must be positive")

    def resolve_n_blocks(self, n_points: int) -> int:
        if self.n_blocks is not None:
            return min(self.n_blocks, max(1, n_points))
        return max(1, -(-n_points // self.target_block_points))

    def to_manifest(self) -> dict:
        return {
            "target_block_points": self.target_block_points,
            "n_blocks": self.n_blocks,
            "partitioner": self.partitioner,
            "workers": self.workers,
            "sample_size": self.sample_size,
            "chunk_points": self.chunk_points,
            "bucket_capacity": self.tree.bucket_capacity,
        }

    @classmethod
    def from_manifest(cls, doc: dict) -> "BlockedBuildConfig":
        return cls(
            target_block_points=int(doc["target_block_points"]),
            n_blocks=doc["n_blocks"],
            partitioner=doc["partitioner"],
            workers=int(doc["workers"]),
            sample_size=int(doc["sample_size"]),
            chunk_points=int(doc["chunk_points"]),
            tree=KdTreeConfig(bucket_capacity=int(doc["bucket_capacity"])),
        )


# ----------------------------------------------------------------------
# Source handling: in-RAM arrays and .npy paths look the same
# ----------------------------------------------------------------------
def _as_source(points) -> np.ndarray:
    """Resolve the reference to an ``(N, 3)`` float64 array-like.

    A ``str`` / ``Path`` names an ``.npy`` file opened with
    ``mmap_mode="r"`` — the out-of-core path: chunked passes touch a
    bounded window of it at a time.
    """
    if isinstance(points, (str, Path)):
        source = np.load(os.fspath(points), mmap_mode="r")
    elif isinstance(points, PointCloud):
        source = points.xyz
    else:
        source = np.asarray(points)
    if source.ndim != 2 or source.shape[1] != 3:
        raise ValueError("reference must have shape (N, 3)")
    if source.shape[0] < 1:
        raise ValueError("reference cloud is empty")
    return source


def _chunks(source, chunk_points: int) -> Iterator[tuple[int, np.ndarray]]:
    for start in range(0, source.shape[0], chunk_points):
        stop = min(start + chunk_points, source.shape[0])
        yield start, np.asarray(source[start:stop], dtype=np.float64)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
def build_blocked(
    points,
    config: BlockedBuildConfig | None = None,
    *,
    block_dir: str | Path | None = None,
    rng: np.random.Generator | None = None,
    **index_kwargs,
) -> "BlockedIndex":
    """Partition, build per-block trees, and return the stitched index.

    ``points`` is an ``(N, 3)`` array, a :class:`PointCloud`, or a path
    to an ``.npy`` file (memory-mapped, so the cloud never has to fit
    in RAM).  ``block_dir`` is where block snapshots and the manifest
    persist; ``None`` uses a managed temporary directory owned by the
    returned index.  ``index_kwargs`` (resident-block budget, eviction
    policy, ...) pass through to :class:`BlockedIndex`.
    """
    config = config or BlockedBuildConfig()
    rng = rng or np.random.default_rng(0)
    source = _as_source(points)
    n = source.shape[0]
    n_blocks = config.resolve_n_blocks(n)

    t_start = time.perf_counter()
    owned_tmp = None
    if block_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="qknn-blocked-")
        block_dir = owned_tmp.name
    block_dir = Path(block_dir)
    block_dir.mkdir(parents=True, exist_ok=True)

    # Pass 0: exact bounds + partitioner sample (both chunked).
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for _, chunk in _chunks(source, config.chunk_points):
        np.minimum(lo, chunk.min(axis=0), out=lo)
        np.maximum(hi, chunk.max(axis=0), out=hi)
    take = min(config.sample_size, n)
    sample_ids = np.sort(rng.choice(n, size=take, replace=False))
    sample = np.asarray(source[sample_ids], dtype=np.float64)

    fit = PARTITIONERS.resolve(config.partitioner)
    n_cells, assign = fit(sample, lo, hi, n_blocks)

    # Pass 1: per-cell occupancy; empty cells are dropped so block ids
    # are dense.
    cell_counts = np.zeros(n_cells, dtype=np.int64)
    for _, chunk in _chunks(source, config.chunk_points):
        cell_counts += np.bincount(assign(chunk), minlength=n_cells)
    used = np.flatnonzero(cell_counts)
    cell_to_block = np.full(n_cells, -1, dtype=np.int64)
    cell_to_block[used] = np.arange(used.size)
    block_counts = cell_counts[used]
    n_blocks = used.size

    # Pass 2: gather points and global ids per block.  Staging buffers
    # are per-block memmaps when the cloud exceeds one chunk (the
    # out-of-core case) and plain arrays otherwise.
    staged = _stage_blocks(
        source, assign, cell_to_block, block_counts, block_dir, config
    )

    # Pass 3: build one flat tree per block and snapshot it.  Each
    # block's builder rng is seeded by block id, so the files are
    # identical whether blocks build inline or on a thread pool.
    seed0 = int(rng.integers(0, 2**31 - 1))
    files = [f"block_{b:05d}.npz" for b in range(n_blocks)]

    def build_block(b: int) -> dict:
        return _build_one_block(
            staged.points(b), staged.ids(b), block_dir / files[b],
            config.tree, seed0 + b,
        )

    workers = min(config.workers, n_blocks)
    if workers > 1:
        with ThreadPoolExecutor(workers, thread_name_prefix="qknn-blk") as pool:
            build_stats = list(pool.map(build_block, range(n_blocks)))
    else:
        build_stats = [build_block(b) for b in range(n_blocks)]
    staged.cleanup()

    manifest = {
        "version": MANIFEST_VERSION,
        "n_points": int(n),
        "n_blocks": int(n_blocks),
        "files": files,
        "block_points": [int(c) for c in block_counts],
        "aabb_lo": staged.aabb_lo.tolist(),
        "aabb_hi": staged.aabb_hi.tolist(),
        "config": config.to_manifest(),
        "build": {
            "workers": config.workers,
            "total_s": time.perf_counter() - t_start,
            "blocks": build_stats,
        },
    }
    with open(block_dir / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    index = BlockedIndex(block_dir, **index_kwargs)
    index._config = config
    index._owned_tmp = owned_tmp
    return index


class _Stager:
    """Per-block gather buffers + running AABBs for pass 2."""

    def __init__(self, block_counts, block_dir: Path, out_of_core: bool):
        self.aabb_lo = np.full((block_counts.size, 3), np.inf)
        self.aabb_hi = np.full((block_counts.size, 3), -np.inf)
        self._fill = np.zeros(block_counts.size, dtype=np.int64)
        self._staging_dir = None
        self._pts: list[np.ndarray] = []
        self._ids: list[np.ndarray] = []
        if out_of_core:
            self._staging_dir = block_dir / "staging"
            self._staging_dir.mkdir(exist_ok=True)
        for b, count in enumerate(block_counts):
            shape = (int(count), 3)
            if out_of_core:
                self._pts.append(np.lib.format.open_memmap(
                    self._staging_dir / f"pts_{b:05d}.npy",
                    mode="w+", dtype=np.float64, shape=shape,
                ))
                self._ids.append(np.lib.format.open_memmap(
                    self._staging_dir / f"ids_{b:05d}.npy",
                    mode="w+", dtype=np.int64, shape=(int(count),),
                ))
            else:
                self._pts.append(np.empty(shape, dtype=np.float64))
                self._ids.append(np.empty(int(count), dtype=np.int64))

    def append(self, block: int, pts: np.ndarray, ids: np.ndarray) -> None:
        start = self._fill[block]
        stop = start + pts.shape[0]
        self._pts[block][start:stop] = pts
        self._ids[block][start:stop] = ids
        self._fill[block] = stop
        np.minimum(self.aabb_lo[block], pts.min(axis=0),
                   out=self.aabb_lo[block])
        np.maximum(self.aabb_hi[block], pts.max(axis=0),
                   out=self.aabb_hi[block])

    def points(self, block: int) -> np.ndarray:
        return self._pts[block]

    def ids(self, block: int) -> np.ndarray:
        return self._ids[block]

    def cleanup(self) -> None:
        self._pts = []
        self._ids = []
        if self._staging_dir is not None:
            for path in self._staging_dir.glob("*.npy"):
                path.unlink()
            self._staging_dir.rmdir()


def _stage_blocks(
    source, assign, cell_to_block, block_counts, block_dir, config
) -> _Stager:
    out_of_core = source.shape[0] > config.chunk_points
    stager = _Stager(block_counts, block_dir, out_of_core)
    for start, chunk in _chunks(source, config.chunk_points):
        labels = cell_to_block[assign(chunk)]
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        present, run_starts = np.unique(sorted_labels, return_index=True)
        run_stops = np.append(run_starts[1:], sorted_labels.size)
        for block, a, z in zip(present, run_starts, run_stops):
            rows = order[a:z]
            stager.append(
                int(block),
                chunk[rows],
                (start + rows).astype(np.int64),
            )
    return stager


def _tree_resident_nbytes(arrays: dict[str, np.ndarray], n_points: int) -> int:
    """Structural bytes plus the engine's derived bucket store."""
    structural = sum(a.nbytes for a in arrays.values())
    n_buckets = arrays["bucket_offsets"].shape[0] - 1
    return int(
        structural
        + _DERIVED_BYTES_PER_POINT * n_points
        + _DERIVED_BYTES_PER_BUCKET * n_buckets
    )


def _build_one_block(
    pts, ids, out_path: Path, tree_config: KdTreeConfig, seed: int
) -> dict:
    t0 = time.perf_counter()
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    flat, trace = build_flat(
        pts, tree_config, rng=np.random.default_rng(seed)
    )
    snapshot = Snapshot.from_flat(
        flat, extra={"global_ids": np.ascontiguousarray(ids, dtype=np.int64)}
    )
    snapshot.save(out_path, compressed=False)
    return {
        "file": out_path.name,
        "n_points": int(pts.shape[0]),
        "n_leaves": int(flat.is_leaf.sum()),
        "build_s": time.perf_counter() - t0,
    }


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
@dataclass
class _ResidentBlock:
    """One loaded block: what the eviction policies key off."""

    block: int
    tree: FlatKdTree
    global_ids: np.ndarray
    nbytes: int
    last_active: float


class BlockedIndex:
    """Top-level router over per-block trees; a :class:`NeighborIndex`.

    Opens the manifest written by :func:`build_blocked` and serves
    exact k-NN by visiting blocks in ascending AABB-lower-bound order,
    stopping per query once the next bound exceeds its current k-th
    distance.  Block trees are memory-mapped on first touch and cached
    under ``max_resident_blocks`` / ``max_resident_bytes``, with
    victims chosen by the shared eviction registry — so a cloud larger
    than RAM serves from however many blocks the budget allows.
    """

    name = "kd-blocked"

    def __init__(
        self,
        block_dir: str | Path,
        *,
        max_resident_blocks: int | None = None,
        max_resident_bytes: int | None = None,
        eviction: str = "lru",
        mmap_mode: str | None = "r",
    ):
        if max_resident_blocks is not None and max_resident_blocks < 1:
            raise ValueError("max_resident_blocks must be positive")
        EVICTION.check(eviction)
        self.block_dir = Path(block_dir)
        self.max_resident_blocks = max_resident_blocks
        self.max_resident_bytes = max_resident_bytes
        self.eviction = eviction
        self.mmap_mode = mmap_mode
        self._config: BlockedBuildConfig | None = None
        self._owned_tmp = None
        self._clock = time.monotonic
        self._load_manifest()

    def _load_manifest(self) -> None:
        path = self.block_dir / _MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(
                f"{self.block_dir} has no {_MANIFEST_NAME}; build one with "
                "build_blocked(points, ..., block_dir=...)"
            )
        with open(path, encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        if self.manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported blocked manifest version "
                f"{self.manifest.get('version')!r}"
            )
        self.n_points = int(self.manifest["n_points"])
        self.n_blocks = int(self.manifest["n_blocks"])
        self._files = [self.block_dir / f for f in self.manifest["files"]]
        self._aabb_lo = np.asarray(self.manifest["aabb_lo"], dtype=np.float64)
        self._aabb_hi = np.asarray(self.manifest["aabb_hi"], dtype=np.float64)
        self._resident: dict[int, _ResidentBlock] = {}
        self._loads = 0
        self._evictions = 0
        self._block_visits = 0

    # -- NeighborIndex protocol ---------------------------------------
    def build(self, reference) -> "BlockedIndex":
        """Rebind to a new cloud: rebuild the blocks with this config."""
        rebuilt = build_blocked(
            reference,
            self._config or BlockedBuildConfig.from_manifest(
                self.manifest["config"]
            ),
            max_resident_blocks=self.max_resident_blocks,
            max_resident_bytes=self.max_resident_bytes,
            eviction=self.eviction,
            mmap_mode=self.mmap_mode,
        )
        self.__dict__.update(rebuilt.__dict__)
        return self

    def query(self, queries, k: int) -> QueryResult:
        """Exact k-NN over all blocks, AABB-pruned per query."""
        q = _as_query_array(queries)
        if k < 1:
            raise ValueError("k must be positive")
        m = q.shape[0]
        run_idx = np.full((m, k), PAD_INDEX, dtype=np.int64)
        run_dst = np.full((m, k), np.inf, dtype=np.float64)
        if m == 0:
            return QueryResult(indices=run_idx, distances=run_dst)

        lb = self._block_bounds(q)
        order = np.argsort(lb, axis=1, kind="stable")
        lb_sorted = np.take_along_axis(lb, order, axis=1)

        obs = get_registry()
        obs.counter("blocked.queries").inc(m)
        alive = np.arange(m)
        for round_no in range(self.n_blocks):
            # A block stays interesting while its bound does not beat
            # the query's current k-th distance (non-strict, so exact
            # ties are still visited and merges stay canonical).
            kth_sq = run_dst[alive, k - 1] ** 2
            keep = lb_sorted[alive, round_no] <= kth_sq * (1.0 + _PRUNE_SLACK)
            alive = alive[keep]
            if alive.size == 0:
                break
            blocks = order[alive, round_no]
            for block in np.unique(blocks):
                rows = alive[blocks == block]
                idx_part, dst_part = self._search_block(
                    int(block), q[rows], k
                )
                merged_idx, merged_dst = merge_topk(
                    [run_idx[rows], idx_part], [run_dst[rows], dst_part], k
                )
                run_idx[rows] = merged_idx
                run_dst[rows] = merged_dst
            self._block_visits += int(alive.size)
            obs.counter("blocked.block_visits").inc(int(alive.size))
        return QueryResult(indices=run_idx, distances=run_dst)

    # -- non-kNN modalities (native) ----------------------------------
    supports_radius = True
    supports_sample = True

    def query_radius(
        self,
        queries,
        radius: float,
        *,
        max_neighbors: int | None = None,
    ) -> "RaggedResult":
        """Exact batched radius search, AABB-pruned per block.

        Visits every block whose squared AABB lower bound is within the
        ball (under the same slack as :meth:`query` — extra visits only
        cost time), runs the vectorized
        :func:`~repro.query.radius.radius_batched` kernel on the
        relevant query rows, translates hits to global ids, and funnels
        all pairs through the one canonical CSR sort.  The cap is
        applied after the global merge, never per block, so the result
        is bit-identical to a monolithic tree over the same cloud.
        """
        from repro.query.radius import _check_radius, radius_batched
        from repro.query.result import build_ragged

        radius = _check_radius(radius)
        q = _as_query_array(queries)
        m = q.shape[0]
        obs = get_registry()
        obs.counter("blocked.queries").inc(m)
        pair_q: list[np.ndarray] = []
        pair_i: list[np.ndarray] = []
        pair_d: list[np.ndarray] = []
        if m:
            lb = self._block_bounds(q)
            within = lb <= (radius * radius) * (1.0 + _PRUNE_SLACK)
            for block in range(self.n_blocks):
                rows = np.flatnonzero(within[:, block])
                if rows.size == 0:
                    continue
                resident = self._get_block(block)
                part = radius_batched(resident.tree, q[rows], radius)
                if part.n_pairs:
                    pair_q.append(np.repeat(rows, part.counts()))
                    pair_i.append(resident.global_ids[part.indices])
                    pair_d.append(part.distances)
                self._block_visits += int(rows.size)
                obs.counter("blocked.block_visits").inc(int(rows.size))
        qid = (
            np.concatenate(pair_q) if pair_q
            else np.empty(0, dtype=np.int64)
        )
        idx = (
            np.concatenate(pair_i) if pair_i
            else np.empty(0, dtype=np.int64)
        )
        dst = (
            np.concatenate(pair_d) if pair_d
            else np.empty(0, dtype=np.float64)
        )
        return build_ragged(qid, idx, dst, m, max_neighbors=max_neighbors)

    def sample(self, m: int, *, start: int = 0) -> np.ndarray:
        """Two-level farthest point sampling across blocks.

        One :class:`~repro.query.fps.BucketFpsState` per block carries
        the fused-FPS bucket pruning; on top, a whole block is skipped
        when its point-AABB lower bound to the new sample already meets
        or exceeds the block's own maximum distance-to-sample (then no
        member's minimum can change — the same no-op proof as the
        bucket level, one level up).  Selection takes the global max,
        ties by ascending global id; per-block ids ascend with local
        ids (the stager appends chunks in scan order), so the sequence
        is bit-identical to :func:`~repro.query.fps.sample_fps_reference`
        over the whole cloud.
        """
        from repro.query.fps import BucketFpsState, _check_sample_args

        _check_sample_args(self.n_points, m, start)
        obs = get_registry()
        with obs.timer("build.fps"):
            states: list[BucketFpsState] = []
            gids_all: list[np.ndarray] = []
            los: list[np.ndarray] = []
            his: list[np.ndarray] = []
            for block in range(self.n_blocks):
                resident = self._get_block(block)
                xyz = np.asarray(resident.tree.points, dtype=np.float64)
                states.append(BucketFpsState(resident.tree, xyz))
                gids_all.append(
                    np.asarray(resident.global_ids, dtype=np.int64)
                )
                los.append(xyz.min(axis=0))
                his.append(xyz.max(axis=0))
            sel = np.empty(m, dtype=np.int64)
            sel[0] = start
            cur_block, cur_local = self._locate(gids_all, start)
            block_visits = 0
            block_pruned = 0
            for i in range(1, m):
                s = states[cur_block].xyz[cur_local]
                for b, state in enumerate(states):
                    if b == cur_block:
                        state.update(s, cur_local)
                        block_visits += 1
                        continue
                    delta = np.maximum(
                        np.maximum(los[b] - s, s - his[b]), 0.0
                    )
                    if float((delta * delta).sum()) < float(
                        state.bucket_max.max()
                    ):
                        state.update(s)
                        block_visits += 1
                    else:
                        block_pruned += 1
                best_val = -np.inf
                best_gid = -1
                for b, state in enumerate(states):
                    val, arg = state.peek()
                    if val == -np.inf:
                        continue
                    gid = int(gids_all[b][arg])
                    if val > best_val or (
                        val == best_val and gid < best_gid
                    ):
                        best_val = val
                        best_gid = gid
                        cur_block, cur_local = b, arg
                sel[i] = best_gid
        if obs.enabled:
            obs.counter("build.fps.calls").inc()
            obs.counter("build.fps.samples").inc(m)
            obs.counter("build.fps.bucket_visits").inc(
                sum(s.visited for s in states)
            )
            obs.counter("build.fps.bucket_pruned").inc(
                sum(s.pruned for s in states)
            )
            obs.counter("blocked.fps.block_visits").inc(block_visits)
            obs.counter("blocked.fps.block_pruned").inc(block_pruned)
        return sel

    @staticmethod
    def _locate(
        gids_all: list[np.ndarray], global_id: int
    ) -> tuple[int, int]:
        """Map a global point id to its (block, local index)."""
        for b, gids in enumerate(gids_all):
            pos = int(np.searchsorted(gids, global_id))
            if pos < gids.size and gids[pos] == global_id:
                return b, pos
        raise ValueError(f"global id {global_id} not found in any block")

    def stats(self) -> dict:
        sizes = self.manifest["block_points"]
        return {
            "n_reference": self.n_points,
            "n_blocks": self.n_blocks,
            "partitioner": self.manifest["config"]["partitioner"],
            "resident_blocks": len(self._resident),
            "resident_bytes": sum(
                r.nbytes for r in self._resident.values()
            ),
            "block_loads": self._loads,
            "block_evictions": self._evictions,
            "block_visits": self._block_visits,
            "min_block_points": int(min(sizes)),
            "max_block_points": int(max(sizes)),
        }

    # -- block cache ---------------------------------------------------
    def _block_bounds(self, q: np.ndarray) -> np.ndarray:
        """Squared lower bound from every query to every block's AABB,
        shape ``(M, n_blocks)``."""
        below = np.maximum(self._aabb_lo[None, :, :] - q[:, None, :], 0.0)
        above = np.maximum(q[:, None, :] - self._aabb_hi[None, :, :], 0.0)
        return (below * below + above * above).sum(axis=2)

    def _search_block(
        self, block: int, q: np.ndarray, k: int, budget: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        resident = self._get_block(block)
        return knn_budgeted(resident.tree, q, k, budget, resident.global_ids)

    def _get_block(self, block: int) -> _ResidentBlock:
        entry = self._resident.get(block)
        now = self._clock()
        if entry is None:
            snap = Snapshot.load(self._files[block], mmap_mode=self.mmap_mode)
            entry = _ResidentBlock(
                block=block,
                tree=snap.to_flat(),
                global_ids=np.asarray(
                    snap.extras["global_ids"], dtype=np.int64
                ),
                nbytes=_tree_resident_nbytes(snap.arrays, snap.n_points),
                last_active=now,
            )
            self._resident[block] = entry
            self._loads += 1
            get_registry().counter("blocked.block_loads").inc()
            self._enforce_residency(now, keep=block)
        entry.last_active = now
        return entry

    def _enforce_residency(self, now: float, *, keep: int) -> None:
        policy = EVICTION.resolve(self.eviction)

        def over_budget() -> bool:
            if (self.max_resident_blocks is not None
                    and len(self._resident) > self.max_resident_blocks):
                return True
            return (
                self.max_resident_bytes is not None
                and len(self._resident) > 1
                and sum(r.nbytes for r in self._resident.values())
                > self.max_resident_bytes
            )

        while over_budget():
            victims = [r for b, r in self._resident.items() if b != keep]
            if not victims:
                break
            victim = min(victims, key=lambda r: policy(r, now))
            del self._resident[victim.block]
            self._evictions += 1
            get_registry().counter("blocked.block_evictions").inc()

    # -- serving integration ------------------------------------------
    def as_shard(self) -> "BlockedShard":
        """Adapter so this index can back a serving shard.

        The returned object satisfies the thread execution backend's
        shard contract (``search(q, k, budget)`` + ``global_ids``);
        hand it to :meth:`repro.serve.server.KnnServer.from_shards`.
        The process backend snapshots shards into shared memory — that
        would materialize every block, so it is refused.
        """
        return BlockedShard(self)


class BlockedShard:
    """Duck-typed :class:`~repro.serve.sharding.ShardState` over a
    :class:`BlockedIndex` — thread execution backend only."""

    def __init__(self, index: BlockedIndex):
        self.index = index
        self.global_ids = np.arange(index.n_points, dtype=np.int64)

    def search(
        self, q: np.ndarray, k: int, budget: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The serving ladder's budgets, mapped to the blocked router.

        ``None`` is the full exact routed search.  A degraded budget
        (``0`` or a ``max_visits`` bound) applies to the query's *home*
        block only — the approximate answer stays local, mirroring the
        single-tree ladder's locality.
        """
        if budget is None:
            result = self.index.query(q, k)
            return result.indices, result.distances
        home = self.index._block_bounds(q).argmin(axis=1)
        idx = np.full((q.shape[0], k), PAD_INDEX, dtype=np.int64)
        dst = np.full((q.shape[0], k), np.inf, dtype=np.float64)
        for block in np.unique(home):
            rows = home == block
            idx[rows], dst[rows] = self.index._search_block(
                int(block), q[rows], k, budget=budget
            )
        return idx, dst

    def search_radius(
        self, q: np.ndarray, radius: float, k: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Radius rows for the serving layer, as a global CSR triplet.

        Same ``(indices, distances, offsets)`` contract as
        :meth:`repro.serve.sharding.ShardState.search_radius`; ids are
        already global here.  Radius requests never degrade, so there
        is no budget parameter.
        """
        result = self.index.query_radius(q, radius, max_neighbors=k)
        return result.indices, result.distances, result.offsets

    def snapshot(self):
        raise NotImplementedError(
            "a blocked shard cannot be snapshotted into shared memory "
            "(that would materialize every block); serve a BlockedIndex "
            "with the thread execution backend"
        )
