"""Every exported name resolves, so a deletion cannot leave a dangling one."""

import importlib
import pkgutil

import pytest

import streamasr

MODULES = ["streamasr"] + [f"streamasr.{m.name}"
                           for m in pkgutil.iter_modules(streamasr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
