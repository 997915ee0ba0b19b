"""Every name in the ``__all__`` of sircontrol and of each of its modules resolves."""

import importlib

import pytest

MODULES = (
    "sircontrol",
    "sircontrol.model",
    "sircontrol.integrate",
    "sircontrol.ocp",
    "sircontrol.metrics",
    "sircontrol.cli",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
