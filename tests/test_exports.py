import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_only_numeric_kernels_imports_scipy():
    # scipy's routines are wrapped in one module, which the others call
    importers = set()
    for path in Path(setloss.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.stem)
    assert importers == {"numeric_kernels"}


def test_only_numeric_kernels_casts_input_arrays():
    # real_array and integer_array are the rules every input array passes;
    # no other module writes out a cast or a complex check of its own
    casters = set()
    for path in Path(setloss.__file__).parent.glob("*.py"):
        text = path.read_text()
        if "same_kind" in text or "iscomplexobj" in text:
            casters.add(path.stem)
    assert casters == {"numeric_kernels"}


def test_only_loss_functions_reads_the_transformed_map():
    # the map's matrices are TransformedLoss's own: other modules ask the
    # loss (simplex_coords, simplex_vertices, settle_threshold) instead
    private = {"to_simplex", "diff_mat", "anchor_lift", "lift_basis"}
    readers = set()
    for path in Path(setloss.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                readers.add(path.stem)
    assert readers == {"loss_functions"}
