"""The benchmark's traced run wraps names of this package; they must exist.

``setbench/layers.py`` lists every (owner, attribute) binding that
``setbench/run.py --trace 1`` replaces with a timing wrapper.  A rename or
deletion in the package would otherwise surface only in the benchmark's
own smoke test, as a wrap point the trace could not install.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "setbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("setbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    wraps = _load_layers().WRAPS
    assert wraps
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, *_ in wraps
        if owner is None or not callable(getattr(owner, attr, None))
    ]
    assert missing == []
