"""The package façade contract, for every package under ``repro``.

A façade's ``__init__`` is one ``lazy_exports`` table of defining
submodule -> re-exported names; these tests hold each package to what an
eager façade gave its users.
"""

import ast
import importlib
import pkgutil
import re

import pytest

import repro


PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]


def _table(package):
    """The package's ``lazy_exports`` table, read from its source."""
    with open(package.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package.__name__} has no lazy_exports table")


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_package_is_found():
    assert len(PACKAGES) == 15


def test_every_exported_name_is_its_defining_modules_object(package):
    table = _table(package)
    assert sorted(n for names in table.values() for n in names) == package.__all__
    for module, names in table.items():
        defining = importlib.import_module(f"{package.__name__}.{module}")
        for name in names:
            assert getattr(package, name) is getattr(defining, name), name


def test_dir_lists_every_export(package):
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(package.__all__)


def test_every_submodule_resolves_as_an_attribute(package):
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":
            continue  # dunder names never resolve to a submodule
        full = f"{package.__name__}.{info.name}"
        assert package.__getattr__(info.name) is importlib.import_module(full)
        assert getattr(package, info.name) is importlib.import_module(full)


def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    pattern = re.escape(f"module {package.__name__!r} has no attribute 'no_such_name'")
    with pytest.raises(AttributeError, match=pattern):
        package.no_such_name
    with pytest.raises(AttributeError, match=re.escape(repr(package.__name__))):
        package.__no_such_dunder__
