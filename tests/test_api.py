"""The public surface: every exported name resolves, and every module
star-imports."""

import importlib
import pkgutil

import pytest

import crosscap

MODULES = sorted(info.name for info in pkgutil.iter_modules(crosscap.__path__))


def test_package_exports_resolve():
    assert [name for name in crosscap.__all__ if not hasattr(crosscap, name)] == []


def test_every_module_is_listed():
    assert {"cli", "components", "coords", "render"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_star_import(name):
    module = importlib.import_module(f"crosscap.{name}")
    exported = getattr(module, "__all__", ())
    assert [x for x in exported if not hasattr(module, x)] == []
    namespace = {}
    exec(f"from crosscap.{name} import *", namespace)
    assert set(exported) <= set(namespace)
