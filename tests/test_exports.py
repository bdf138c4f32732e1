"""Every exported name resolves, and the package exports exactly its modules' names, so no list goes stale."""

import importlib
import pkgutil

import pytest

import isocut
from isocut import core, driver, generate, hypergraph, isolating, sfm

MODULES = ["isocut"] + [f"isocut.{m.name}" for m in pkgutil.iter_modules(isocut.__path__)]
REEXPORTED = [core, driver, generate, hypergraph, isolating, sfm]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_each_module_all():
    assert isocut.__all__ == ["BACKEND", *(n for module in REEXPORTED for n in module.__all__)]


def test_star_import_binds_the_module_objects():
    namespace = {}
    exec("from isocut import *", namespace)
    owners = {n: module for module in REEXPORTED for n in module.__all__} | {"BACKEND": isocut._kernels}
    assert set(namespace) - {"__builtins__"} == set(owners)
    assert [n for n, module in owners.items() if namespace[n] is not getattr(module, n)] == []
