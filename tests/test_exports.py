from __future__ import annotations

import poslink


def test_every_export_resolves():
    assert [name for name in poslink.__all__ if not hasattr(poslink, name)] == []
    assert len(set(poslink.__all__)) == len(poslink.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from poslink import *", namespace)
    assert set(poslink.__all__) <= set(namespace)
