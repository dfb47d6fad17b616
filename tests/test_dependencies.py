"""The package's only runtime dependency outside the standard library is
numpy, and of numpy only the public API: pyproject promises numpy>=1.24, and
numpy 2 renamed the private `numpy.core` to `numpy._core`.  Nor does the
package keep private code that nothing calls, or a constant that nothing
reads."""

import ast
import sys
from pathlib import Path

import ddsids

ROOT = Path(__file__).resolve().parents[1]
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


def module_definitions(tree, wanted) -> list[tuple[str, ast.AST]]:
    """The module-level names a module defines for which `wanted(name)`
    holds, each with its defining statement."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names if wanted(name)]
    return found


def unused_definitions(wanted, readers) -> list[str]:
    """`path:line: name` of each module-level name of the package, picked by
    `wanted`, that no node of the trees `readers` loads, names as an
    attribute or imports, outside its own defining statement."""
    uses: dict[str, list[ast.AST]] = {}
    for _, tree in readers:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                uses.setdefault(name, []).append(node)
    unused = []
    for path, tree in package_trees():
        for name, definition in module_definitions(tree, wanted):
            own = {id(n) for n in ast.walk(definition)}
            if not any(id(n) not in own for n in uses.get(name, [])):
                unused.append(f"{path.name}:{definition.lineno}: {name}")
    return unused


def test_every_private_name_is_used():
    unused = unused_definitions(lambda name: name.startswith("_") and not name.startswith("__"), package_trees())
    assert not unused, "private names nothing else in the package uses: " + ", ".join(unused)


def test_every_constant_is_read():
    """A module-level UPPER_CASE name is read in the package, the tests or
    the benchmark; one that nothing reads is left over from a setting that
    has gone."""
    scripts = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readers = package_trees() + [(path, ast.parse(path.read_text(), filename=str(path))) for path in scripts]
    unused = unused_definitions(lambda name: name.strip("_").isupper(), readers)
    assert not unused, "constants nothing reads: " + ", ".join(unused)


def test_only_tables_reads_csv_text():
    """`csv` and `warnings` serve the CSV reader, which lives in `tables`."""
    found = [f"{path.name}:{node.lineno}: {name}" for path, tree in package_trees() if path.name != "tables.py"
             for node in ast.walk(tree) for name in imported(node) if name.split(".")[0] in ("csv", "warnings")]
    assert not found, "csv or warnings imported outside tables.py: " + ", ".join(found)


def package_imports(tree) -> list[tuple[int, str, list[str]]]:
    """(line, module, names) of each `from` import of a ddsids module, by
    its name within the package, relative or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "ddsids":
                continue
            found.append((node.lineno, module.removeprefix("ddsids").lstrip("."), [a.name for a in node.names]))
    return found


def test_tables_is_a_leaf():
    tree = dict((path.name, tree) for path, tree in package_trees())["tables.py"]
    found = [f"tables.py:{line}: {module or '.'}" for line, module, _ in package_imports(tree)]
    assert not found, "tables.py imports from the package: " + ", ".join(found)


def test_tables_names_come_from_tables():
    """No module or test takes a name `tables` defines from another module,
    by import or as an attribute of it."""
    trees = dict((path.name, tree) for path, tree in package_trees())
    owned = {name for name, _ in module_definitions(trees["tables.py"], lambda name: True)}
    modules = {path.stem for path in Path(ddsids.__file__).parent.glob("*.py")} - {"tables"}
    tests = sorted((ROOT / "tests").glob("*.py"))
    found = []
    for path, tree in package_trees() + [(path, ast.parse(path.read_text(), filename=str(path))) for path in tests]:
        found += [f"{path.name}:{line}: {module}.{name}" for line, module, names in package_imports(tree)
                  if module in modules for name in names if name in owned]
        found += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr in owned]
    assert not found, "names of tables taken from elsewhere: " + ", ".join(found)
