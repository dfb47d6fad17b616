"""The package's only runtime dependency outside the standard library is
numpy, and of numpy only the public API: pyproject promises numpy>=1.24, and
numpy 2 renamed the private `numpy.core` to `numpy._core`."""

import ast
import sys
from pathlib import Path

import ddsids

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ddsids"}


def package_trees():
    modules = sorted(Path(ddsids.__file__).parent.rglob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def imported(node) -> list[str]:
    """The modules an import statement names, a `from` import's names included."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def private_numpy(name: str) -> bool:
    parts = name.split(".")
    return len(parts) > 1 and parts[0] in ("numpy", "np") and parts[1] in ("core", "_core")


def test_imports_stay_within_stdlib_and_numpy():
    outside = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            outside += [f"{path.name}:{node.lineno}: {name}" for name in imported(node)
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, "imports outside the standard library and numpy: " + ", ".join(outside)


def test_no_private_numpy_modules():
    private = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            names = imported(node)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            private += [f"{path.name}:{node.lineno}: {name}" for name in names if private_numpy(name)]
    assert not private, "private numpy modules: " + ", ".join(private)
