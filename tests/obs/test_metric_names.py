"""Every emitted ``engine.``, ``build.`` and ``blocked.`` name is documented.

The "Metric names" table of docs/observability.md is the contract;
this drives each instrumented kdtree/query path once and checks every
name it emitted against the table's rows for those prefixes.
"""

import re
from pathlib import Path

from repro.datasets import lidar_frame_pair
from repro.kdtree import (
    BlockedBuildConfig,
    KdTreeConfig,
    build_blocked,
    build_tree,
    update_tree,
)
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched
from repro.obs import MetricsRegistry, use_registry
from repro.query import radius_batched, sample_fps

PREFIXES = ("engine.", "build.", "blocked.")


def _strip_remarks(text: str) -> str:
    """Drop parenthesised prose, nested parentheses included."""
    out, depth = [], 0
    for ch in text:
        depth += ch == "("
        if depth == 0:
            out.append(ch)
        depth -= ch == ")" and depth > 0
    return "".join(out)


def _documented(prefix: str) -> list[re.Pattern]:
    """The table row of ``prefix`` as name patterns.

    ``<name>`` matches one name component, ``{a, b}`` either entry,
    and a trailing ``.*`` the name itself and anything under it.
    """
    doc = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    table = doc.read_text().split("## Metric names", 1)[1]
    row = next(
        line for line in table.splitlines() if line.startswith(f"| `{prefix}` |")
    )
    patterns = []
    for entry in re.findall(r"`([^`]+)`", _strip_remarks(row.split("|")[2])):
        stem, _, alts = entry.partition("{")
        names = [stem + a.strip() for a in alts.rstrip("}").split(",")] if alts else [stem]
        for name in names:
            regex = "".join(
                {".*": r"(\..+)?"}.get(part)
                or (r"[^.]+" if part.startswith("<") else re.escape(part))
                for part in re.split(r"(<[^>]+>|\.\*$)", prefix + name)
                if part
            )
            patterns.append(re.compile(regex))
    return patterns


def test_every_emitted_engine_build_blocked_name_is_documented(tmp_path):
    ref, qry = lidar_frame_pair(3_000, seed=3)
    queries = qry.xyz[:64]
    with use_registry(MetricsRegistry()) as reg:
        tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=32))
        knn_approx_batched(tree.flat(), queries, 4)
        knn_exact_batched(tree, queries, 8, max_visits=1)
        radius_batched(tree, queries, 0.5, max_neighbors=4)
        sample_fps(ref, 16, flat=tree.flat())
        update_tree(tree, qry.xyz[:2_000])
        index = build_blocked(
            ref.xyz, BlockedBuildConfig(n_blocks=4),
            block_dir=tmp_path / "blocks", max_resident_blocks=1,
        )
        index.query(queries, 4)
        index.query_radius(queries, 0.5)
        index.sample(8)
    snapshot = reg.snapshot()
    emitted = {
        name
        for kind in ("counters", "gauges", "distributions", "histograms")
        for name in snapshot[kind]
        if name.startswith(PREFIXES)
    }
    # The drive reached the names this contract was written for.
    for name in ("engine.exact.budget_truncated", "engine.radius.pairs",
                 "build.fps.samples", "blocked.block_evictions",
                 "blocked.fps.block_visits"):
        assert name in emitted, name
    documented = [p for prefix in PREFIXES for p in _documented(prefix)]
    undocumented = sorted(
        name for name in emitted
        if not any(p.fullmatch(name) for p in documented)
    )
    assert not undocumented, (
        f"emitted but missing from docs/observability.md: {undocumented}"
    )


def test_row_parser_reads_braces_wildcards_and_remarks():
    patterns = _documented("build.")
    assert any(p.fullmatch("build.incremental.merges") for p in patterns)
    assert any(p.fullmatch("build.forest.vectorized.seconds") for p in patterns)
    assert not any(p.fullmatch("build.forest.a.b.seconds") for p in patterns)
    # The engine row's remark holds nested parentheses; no name inside
    # it leaks out as a pattern.
    assert not any("2^b" in p.pattern for p in _documented("engine."))
