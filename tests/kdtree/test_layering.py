"""The kdtree package sits below the serving layer.

``repro.serve`` builds on ``repro.kdtree`` (shard states, merges,
snapshots); the reverse import would make the core depend on its
client.  Scans every module's import statements, lazy ones included.
"""

import ast
from pathlib import Path

KDTREE = Path(__file__).resolve().parents[2] / "src" / "repro" / "kdtree"


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_kdtree_imports_nothing_from_serve():
    offenders = sorted(
        f"{path.name}: {module}"
        for path in KDTREE.glob("*.py")
        for module in _imported_modules(path)
        if module == "repro.serve" or module.startswith("repro.serve.")
    )
    assert list(KDTREE.glob("*.py")), KDTREE
    assert not offenders, offenders
