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
