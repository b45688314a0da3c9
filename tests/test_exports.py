import ast
import inspect
import re
from pathlib import Path

import planar_mk


def test_all_resolves_without_duplicates():
    names = planar_mk.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(planar_mk, name)]
    assert not missing, f"__all__ names no such attribute: {missing}"


def test_every_public_class_and_function_is_listed():
    public = {
        name
        for name, obj in vars(planar_mk).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public, "the package binds no public class or function"
    assert public <= set(planar_mk.__all__), f"not in __all__: {sorted(public - set(planar_mk.__all__))}"


def test_no_module_imports_a_name_it_does_not_read():
    # no linter guards the package, so an import a refactor leaves unread would stay
    unread = []
    for path in sorted(Path(planar_mk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert not unread, f"imported and never read: {unread}"


def test_readme_names_every_public_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [name for name in planar_mk.__all__ if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not missing, f"README does not name: {missing}"
    # the API list heads each bullet with its backticked names; a name dropped from __all__ cannot linger there
    api_list = readme.split("Every name in `planar_mk.__all__`:\n\n", 1)[1].split("\n\n", 1)[0]
    heads = [re.findall(r"`(\w+)`", line.split(":", 1)[0]) for line in api_list.splitlines()]
    assert all(heads), "every line of the API list heads a bullet with backticked names"
    listed = [name for head in heads for name in head]
    assert sorted(listed) == sorted(planar_mk.__all__), f"README's API list differs from __all__: {listed}"


def _module_level_public_names(tree):
    """(name, first line, last line) of each public function, class and constant a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno) for name in names if not name.startswith("_"))


def test_every_public_module_level_name_has_a_reader_outside_tests():
    # Methods are out of scope. Three are read only by tests today: QuantileTable.from_atoms
    # (ROADMAP item 1a gives it a reader), DiscreteDensity1D.from_values and Xoshiro256StarStar.integers.
    root = Path(__file__).resolve().parents[1]
    package = Path(planar_mk.__file__).parent
    defined = {
        path: list(_module_level_public_names(ast.parse(path.read_text())))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = {}  # name -> (path, line) of each Name load or attribute read
    for path in [*sorted(package.glob("*.py")), *sorted((root / "scripts").glob("*.py")),
                 *sorted((root / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append((path, node.lineno))
    unread = [
        f"{path.name}: {name}"
        for path, names in defined.items()
        for name, first, last in names
        # a read inside the name's own definition does not count
        if all(p == path and first <= line <= last for p, line in reads.get(name, []))
    ]
    assert not unread, f"read only by tests: {unread}"
