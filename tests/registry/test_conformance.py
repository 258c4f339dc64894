"""Conformance suite over every string-knob registry in the repo.

Satellite contract of the registry consolidation: every knob rejects
unknown names with one uniform message listing the full set of choices,
and registration order never changes what callers resolve or see.
"""

import re

import numpy as np
import pytest

from repro.registry import Registry

# ---------------------------------------------------------------------------
# The live registries: (registry, an exercised caller that must raise the
# registry's uniform unknown-name error for a bogus knob value).
# ---------------------------------------------------------------------------


def _registries():
    from repro.datasets.drive import SCENES
    from repro.index.protocol import INDEXES
    from repro.kdtree.blocked import PARTITIONERS
    from repro.kdtree.builders import BUILDERS
    from repro.kdtree.search import ENGINES
    from repro.serve.backends import BACKENDS
    from repro.serve.sessions import EVICTION
    from repro.serve.sharding import STRATEGIES

    return {
        "knn index": INDEXES,
        "execution backend": BACKENDS,
        "tree builder": BUILDERS,
        "query engine": ENGINES,
        "sharding strategy": STRATEGIES,
        "scene kind": SCENES,
        "eviction policy": EVICTION,
        "partitioner": PARTITIONERS,
    }


def _callers():
    """Knob surfaces that must surface the registry error verbatim."""
    from repro.index import make_index
    from repro.kdtree import BlockedBuildConfig, KdTreeConfig, knn_approx
    from repro.kdtree.build import build_tree
    from repro.serve.config import ExecutionConfig, ServeConfig
    from repro.serve.sessions import SessionConfig

    ref = np.zeros((4, 3))

    def _engine():
        from repro.kdtree.build import build_tree

        tree, _ = build_tree(np.random.default_rng(0).normal(size=(16, 3)))
        knn_approx(tree, ref, 1, engine="nope")

    return [
        ("knn index", lambda: make_index("nope", ref)),
        ("execution backend", lambda: ExecutionConfig(backend="nope")),
        ("tree builder", lambda: KdTreeConfig(builder="nope")),
        ("query engine", _engine),
        ("sharding strategy", lambda: ServeConfig(sharding="nope")),
        ("scene kind", lambda: __import__(
            "repro.datasets.drive", fromlist=["_make_scene"]
        )._make_scene("nope", 0)),
        ("eviction policy", lambda: SessionConfig(eviction="nope")),
        ("partitioner", lambda: BlockedBuildConfig(partitioner="nope")),
    ]


class TestUniformErrors:
    @pytest.mark.parametrize("kind", sorted(_registries()))
    def test_unknown_name_lists_every_choice(self, kind):
        registry = _registries()[kind]
        with pytest.raises(ValueError) as excinfo:
            registry.resolve("definitely-not-registered")
        message = str(excinfo.value)
        assert message.startswith(
            f"unknown {kind} 'definitely-not-registered'; available: "
        )
        for choice in registry.available():
            assert choice in message

    @pytest.mark.parametrize(
        "kind,caller", _callers(), ids=[k for k, _ in _callers()]
    )
    def test_knob_surfaces_raise_the_registry_error(self, kind, caller):
        with pytest.raises(ValueError, match=f"unknown {re.escape(kind)} "):
            caller()

    def test_alias_summary_included_when_aliases_exist(self):
        from repro.kdtree.search import ENGINES

        with pytest.raises(ValueError, match=r"aliases: .*vectorized -> batched"):
            ENGINES.resolve("nope")


class TestAliases:
    @pytest.mark.parametrize("kind", sorted(_registries()))
    def test_aliases_fold_to_registered_canonicals(self, kind):
        registry = _registries()[kind]
        for alias, canonical in registry.aliases().items():
            assert canonical in registry.available()
            assert registry.resolve(alias) is registry.resolve(canonical)

    def test_engine_aliases(self):
        from repro.kdtree.search import ENGINES

        assert ENGINES.canonical("vectorized") == "batched"
        assert ENGINES.canonical("reference") == "loop"

    def test_available_excludes_aliases(self):
        registry = Registry("thing")
        registry.add("real", object(), "nickname")
        assert registry.available() == ("real",)
        assert registry.aliases() == {"nickname": "real"}
        assert "nickname" in registry


class TestRegistrySemantics:
    def test_registration_order_does_not_change_resolution(self):
        a = Registry("widget")
        b = Registry("widget")
        one, two, three = object(), object(), object()
        a.add("one", one, "uno")
        a.add("two", two)
        a.add("three", three)
        b.add("three", three)
        b.add("two", two)
        b.add("one", one, "uno")
        assert a.available() == b.available()
        assert a.aliases() == b.aliases()
        for name in ("one", "two", "three", "uno"):
            assert a.resolve(name) is b.resolve(name)
        with pytest.raises(ValueError) as err_a:
            a.resolve("nope")
        with pytest.raises(ValueError) as err_b:
            b.resolve("nope")
        assert str(err_a.value) == str(err_b.value)

    def test_duplicate_names_and_aliases_rejected(self):
        registry = Registry("widget")
        registry.add("one", object(), "uno")
        with pytest.raises(ValueError, match="duplicate widget name 'one'"):
            registry.add("one", object())
        with pytest.raises(ValueError, match="duplicate widget name 'uno'"):
            registry.add("two", object(), "uno")

    def test_invalid_names_rejected(self):
        registry = Registry("widget")
        for bad in ("", "-leading", "has space", "has/slash"):
            with pytest.raises(ValueError, match="invalid widget name"):
                registry.add(bad, object())

    def test_check_validates_and_folds(self):
        registry = Registry("widget")
        registry.add("real", object(), "nick")
        assert registry.check("nick") == "real"
        with pytest.raises(ValueError, match="unknown widget"):
            registry.check("nope")

    def test_container_protocol(self):
        registry = Registry("widget")
        registry.add("b", 1)
        registry.add("a", 2)
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "zz" not in registry
