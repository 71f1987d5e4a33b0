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


def test_each_refusal_is_raised_where_it_is_found():
    # no except clause turns the package's own refusals (ValueError and its
    # subclasses) into a package error on their way out, and one function
    # refuses zeros that are not real; a LAPACK failure is wrapped where
    # the kernel calls it
    package_errors = {"DegenerateConfigurationError", "NumericalFailureError", "InvalidStateError"}

    def raised(node):
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in package_errors
        ]

    converters, non_real = set(), set()
    for path in Path(setloss.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {getattr(n, "id", None) for n in ast.walk(node.type)}
                if caught & (package_errors | {"ValueError"}) and raised(node):
                    converters.add(path.stem)
            if isinstance(node, ast.FunctionDef):
                if any("not real" in ast.unparse(call) for call in raised(node)):
                    non_real.add(f"{path.stem}.{node.name}")
    assert converters == set()
    assert non_real == {"extraction.real_projection"}
