"""The package's export table: every name resolves, lazily, to its module's."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsembed


def test_all_matches_imports_without_duplicates():
    # __all__ is the table of lazy imports: each name and its module
    assert len(hsembed.__all__) == len(set(hsembed.__all__))
    assert sorted(hsembed.__all__) == sorted(hsembed._EXPORTS)


@pytest.mark.parametrize("name", hsembed.__all__)
def test_each_name_is_its_modules_object(name):
    module = importlib.import_module(f"hsembed.{hsembed._EXPORTS[name]}")
    assert getattr(hsembed, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hsembed import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(hsembed.__all__)
    for name in hsembed.__all__:
        assert namespace[name] is getattr(hsembed, name)


def test_dir_lists_every_export():
    assert set(hsembed.__all__) <= set(dir(hsembed))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'hsembed' has no attribute 'no_such_name'"):
        hsembed.no_such_name


def test_a_name_loads_only_its_own_modules():
    # in a fresh interpreter: the package alone loads no module, and a
    # name loads its module and what that module imports
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('hsembed'))\n"
        "import hsembed\n"
        "print(loaded())\n"
        "hsembed.leqq\n"
        "print(loaded())\n"
        "from hsembed import *\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "['hsembed']",
        "['hsembed', 'hsembed.model', 'hsembed.order']",
        "['hsembed', 'hsembed.engine', 'hsembed.indices', 'hsembed.lattice', "
        "'hsembed.model', 'hsembed.order', 'hsembed.search']",
    ]
