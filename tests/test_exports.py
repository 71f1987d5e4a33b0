import importlib
import pkgutil

import pytest

import setloss

MODULES = ["setloss"] + [
    f"setloss.{info.name}" for info in pkgutil.iter_modules(setloss.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name removed from a module but left in an export list shows up here
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
