from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import poslink


def test_every_export_resolves():
    assert [name for name in poslink.__all__ if not hasattr(poslink, name)] == []
    assert len(set(poslink.__all__)) == len(poslink.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from poslink import *", namespace)
    assert set(poslink.__all__) <= set(namespace)


def test_exports_are_the_submodules_own_objects():
    # a deferred export must resolve to the object its submodule defines,
    # never to a forwarding stand-in
    for name in poslink.__all__:
        obj = getattr(poslink, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("poslink."), name
        assert getattr(home, name) is obj, name
        if inspect.isfunction(obj):
            assert obj.__code__.co_name == name, name


def test_dir_lists_every_export_before_it_is_loaded():
    # in a fresh interpreter: this session has loaded every export already
    script = "import poslink; print(sorted(set(poslink.__all__) - set(dir(poslink))))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(poslink.__file__).parent.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(poslink, "no_such_export")
