"""The value classes take ``==``, ``hash`` and ``repr`` from one base,
which reads the fields each class names in ``__slots__``: a field kept
anywhere else would drop out of equality without any error."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import poslink
from poslink.errors import Value

from test_values import VALUES

VALUE_CLASSES = {
    "BraidWord", "CrossingSigns", "JonesSummary", "GradingSummary",
    "ObstructionInput", "ObstructionReport",
}


def test_exactly_the_six_value_classes_derive_from_the_base():
    for module in pkgutil.iter_modules(poslink.__path__):
        importlib.import_module(f"poslink.{module.name}")
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls.__name__)
            todo.append(cls)
    assert found == VALUE_CLASSES


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_instances_have_no_dict(name):
    for make in VALUES[name][:3]:
        value = make()
        assert isinstance(value, Value)
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.unlisted_field = 1
