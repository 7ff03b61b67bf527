"""Every exported name resolves, so a deletion cannot leave a dangling one."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_package_imports_no_module_and_exports_only_its_version():
    """The modules are the API: ``import streamasr`` loads none of them,
    so a name has one import path, from its module."""
    src = Path(streamasr.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, streamasr\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('streamasr.')))\n"
            "print(getattr(streamasr, '__all__', ['__version__']))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "['__version__']"]
