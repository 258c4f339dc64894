"""Batched, vectorized radius (range) search over a flat k-d tree.

The radius query is the other half of real perception workloads —
clustering and normal estimation ask "everything within ``r``", not
"the nearest ``k``" — and it reuses the exact machinery the batched
kNN engine already has:

* the exact kNN search's **vectorized frontier walk** collects every
  ``(query, bucket)`` pair the branch-and-bound search would visit:
  all queries walk down from the root together, always entering the
  near child and forking into the far child whenever the
  splitting-plane margin is within the radius (``|q[dim] - t| <= r``
  — the same pruning rule as the per-query
  :func:`repro.kdtree.search.radius_search`), and every leaf reached
  is scanned;
* the exact kNN search's **bounded bucket scan** takes every visited
  pair with the radius as the bound: a bucket many queries visit is
  scored by one BLAS matmul of those queries against its members, the
  other pairs in gathered passes, all in the bucket's own frame
  (:attr:`FlatKdTree.store <repro.kdtree.engine.FlatKdTree.store>`,
  see :mod:`repro.kdtree.engine`), under a margin scaled by the
  bucket's extent that can only ever *add* candidates.  The
  candidates' distances are **re-derived exactly** with the same
  float64 ``sqrt(((q - c)^2).sum())`` kernel every per-query path
  uses, and the inclusion test ``dist <= r`` runs on those exact
  values — so the reported pairs and distances are bit-identical to
  the reference loop.  No Python loop runs per bucket a small call
  visits.

Results come back as a CSR :class:`~repro.query.result.RaggedResult`
with rows in canonical (distance, index) order and an optional
``max_neighbors`` cap (the nearest ones win).
"""

from __future__ import annotations

import numpy as np

from repro.kdtree.engine import FlatKdTree, _bounded_scan, _frontier_walk
from repro.kdtree.search import _as_query_array
from repro.obs import get_registry
from repro.query.result import RaggedResult, build_ragged


def _check_radius(radius: float) -> float:
    radius = float(radius)
    if not radius >= 0.0:
        raise ValueError("radius must be non-negative")
    return radius


def radius_batched(
    tree,
    queries,
    radius: float,
    *,
    max_neighbors: int | None = None,
) -> RaggedResult:
    """All reference points within ``radius`` of each query (exact).

    ``tree`` may be a :class:`~repro.kdtree.node.KdTree` or a
    :class:`FlatKdTree`.  Returns a canonical
    :class:`~repro.query.result.RaggedResult`; with ``max_neighbors``
    each row keeps only its nearest that many.  Bit-identical (pair
    set and distances) to :func:`radius_reference`.
    """
    radius = _check_radius(radius)
    obs = get_registry()
    q = _as_query_array(queries)
    flat = tree.flat()
    m = q.shape[0]
    with obs.timer("engine.radius"):
        # ``r = 0`` still forks across planes a query sits on.
        bound = np.full(m, radius)
        vq, leaves = _frontier_walk(flat, q, np.arange(m), bound)
        chunks = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
        chunks += _bounded_scan(flat, q, vq, flat.bucket_id[leaves], bound)
        qid, idx, dst = (np.concatenate(part) for part in zip(*chunks))
        result = build_ragged(qid, idx, dst, m, max_neighbors=max_neighbors)
    if obs.enabled:
        obs.counter("engine.radius.calls").inc()
        obs.counter("engine.radius.queries").inc(m)
        obs.counter("engine.radius.bucket_scans").inc(int(vq.size))
        obs.counter("engine.radius.pairs").inc(int(result.n_pairs))
    return result


def radius_reference(
    tree,
    queries,
    radius: float,
    *,
    max_neighbors: int | None = None,
) -> RaggedResult:
    """Per-query reference loop defining the radius-search contract.

    An explicit-stack depth-first walk per query over the flat layout
    with the classic pruning rule (descend the near child, enter the
    far child iff ``|q[dim] - t| <= r``) and the exact float64
    distance kernel.  Slow on purpose — one Python traversal per
    query, the software pointer-chasing behavior the batched kernel
    removes — and the ground truth :func:`radius_batched` must match
    bit for bit.
    """
    radius = _check_radius(radius)
    q = _as_query_array(queries)
    flat = tree.flat()
    m = q.shape[0]
    pair_q: list[np.ndarray] = []
    pair_i: list[np.ndarray] = []
    pair_d: list[np.ndarray] = []
    for qi in range(m):
        point = q[qi]
        stack = [FlatKdTree.ROOT]
        while stack:
            node = stack.pop()
            if flat.is_leaf[node]:
                bid = flat.bucket_id[node]
                members = flat.bucket_members[
                    flat.bucket_offsets[bid] : flat.bucket_offsets[bid + 1]
                ]
                if members.size == 0:
                    continue
                diff = flat.points[members] - point
                dist = np.sqrt((diff * diff).sum(axis=1))
                inside = dist <= radius
                if inside.any():
                    found = members[inside]
                    pair_q.append(np.full(found.size, qi, dtype=np.int64))
                    pair_i.append(found)
                    pair_d.append(dist[inside])
                continue
            delta = point[flat.dim[node]] - flat.threshold[node]
            near, far = (
                (flat.left[node], flat.right[node])
                if delta <= 0
                else (flat.right[node], flat.left[node])
            )
            if abs(delta) <= radius:
                stack.append(far)
            stack.append(near)
    if pair_q:
        qid = np.concatenate(pair_q)
        idx = np.concatenate(pair_i)
        dst = np.concatenate(pair_d)
    else:
        qid = np.empty(0, dtype=np.int64)
        idx = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.float64)
    return build_ragged(qid, idx, dst, m, max_neighbors=max_neighbors)


def radius_bruteforce(
    reference,
    queries,
    radius: float,
    *,
    max_neighbors: int | None = None,
    chunk_size: int = 1024,
) -> RaggedResult:
    """Tree-free oracle: exact kernel over every (query, point) pair.

    Chunked over queries to bound the ``(chunk, N, 3)`` temporary.
    Same kernel, same canonical order — bit-identical to the tree
    paths on any input.
    """
    radius = _check_radius(radius)
    ref = _as_query_array(reference)
    q = _as_query_array(queries)
    m = q.shape[0]
    pair_q: list[np.ndarray] = []
    pair_i: list[np.ndarray] = []
    pair_d: list[np.ndarray] = []
    for start in range(0, m, chunk_size):
        chunk = q[start : start + chunk_size]
        diff = chunk[:, None, :] - ref[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        gi, pj = np.nonzero(dist <= radius)
        pair_q.append(gi + start)
        pair_i.append(pj.astype(np.int64))
        pair_d.append(dist[gi, pj])
    qid = np.concatenate(pair_q) if pair_q else np.empty(0, dtype=np.int64)
    idx = np.concatenate(pair_i) if pair_i else np.empty(0, dtype=np.int64)
    dst = np.concatenate(pair_d) if pair_d else np.empty(0, dtype=np.float64)
    return build_ragged(qid, idx, dst, m, max_neighbors=max_neighbors)
