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


def test_one_build_calls_every_traced_cli_binding(tmp_path, monkeypatch):
    # a build that stopped calling a traced name would leave its layer
    # reading 0 in every trace, so each must run exactly once per build
    import setloss.cli as cli

    names = sorted({attr for owner, attr, *_ in _load_layers().WRAPS if owner is cli})
    assert "main" in names and len(names) > 1
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    inp = tmp_path / "points.csv"
    inp.write_text("2.0,-1.0\n-1.0,3.0\n-2.0,-2.0\n0.5,0.25\n")
    out = tmp_path / "system.json"
    assert cli.main(["build", "--input", str(inp), "--output", str(out)]) == 0
    assert calls == dict.fromkeys(names, 1)


def test_one_gmm_problem_calls_every_traced_binding(monkeypatch):
    # a transformed-loss recovery and its labeling run every traced
    # clustering, TransformedLoss, basis_jacobian and PenaltyModel binding
    # but the two that serve other paths, so none of those layers reads 0
    import numpy as np

    import setloss.clustering as clustering
    import setloss.loss_functions as loss_functions
    from setloss.fitting import FitOptions, PenaltyModel, SampleSet
    from setloss.loss_functions import TransformedLoss

    owners = {clustering, TransformedLoss, PenaltyModel}
    names = sorted(
        (getattr(owner, "__name__", ""), attr)
        for owner, attr, *_ in _load_layers().WRAPS
        if owner in owners or (owner is loss_functions and attr == "basis_jacobian")
    )
    # the generating loss interpolates; describe renders a closed form
    other_paths = {
        ("setloss.clustering", "solve_generating_matrix"),
        ("TransformedLoss", "describe"),
    }
    assert other_paths <= set(names)
    calls = dict.fromkeys(names, 0)
    lookup = {getattr(o, "__name__", ""): o for o in (*owners, loss_functions)}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    for key in names:
        owner = lookup[key[0]]
        monkeypatch.setattr(owner, key[1], counting(key, getattr(owner, key[1])))
    spec = clustering.random_gmm_spec(2, 4, seed=3)
    samples, _ = clustering.gmm_sample(spec, 300, seed=4)
    result = clustering.recover_point_set(SampleSet(samples.samples), 4, FitOptions(seed=3))
    assert result.loss.kind == "lifted"
    clustering.assign_labels(result.loss, result.recovered, samples)
    assert [key for key, count in calls.items() if count == 0] == sorted(other_paths)
