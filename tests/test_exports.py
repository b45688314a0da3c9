import inspect

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
