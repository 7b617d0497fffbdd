"""Public names: each module's ``__all__`` matches what it defines."""

import importlib
import inspect

import pytest

MODULES = ["sdprecode", "sdprecode.channel", "sdprecode.analysis",
           "sdprecode.modulator", "sdprecode.precoder", "sdprecode.optim",
           "sdprecode.sim", "sdprecode.sim.engine", "sdprecode.sim.config"]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_listed(name):
    module = importlib.import_module(name)
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name}
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{name} does not list {unlisted} in __all__"
