"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import isocut

MODULES = ["isocut"] + [f"isocut.{m.name}" for m in pkgutil.iter_modules(isocut.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
