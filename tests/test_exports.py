"""Every name a module exports in ``__all__`` resolves, so a deletion
cannot leave a stale export behind."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["bounds", "dgp", "estimation", "gaussian", "simulation"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"ivpower.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    assert len(set(mod.__all__)) == len(mod.__all__)
