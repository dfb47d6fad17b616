"""The package's only runtime dependency outside the standard library is numpy."""

import ast
import sys
from pathlib import Path

import ddsids

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ddsids"}


def test_imports_stay_within_stdlib_and_numpy():
    modules = sorted(Path(ddsids.__file__).parent.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert not outside, "imports outside the standard library and numpy: " + ", ".join(outside)
