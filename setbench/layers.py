"""Where the traced run wraps setloss, and the per-layer metrics it derives.

Layers are the package's modules.  Each wrap point names the module (or
class) whose binding the caller looks up, e.g. ``setloss.clustering``'s
copy of ``extract_zero_set``.  Span names start with the layer that owns
the called function, so a layer's self time is the sum of the self times
of its spans.

Metrics are per problem (averaged over the traced problems) unless the
name says otherwise, so runs of different length compare directly.
"""

from __future__ import annotations

from pathlib import Path

import setloss.cli as cli
import setloss.clustering as clustering
import setloss.extraction as extraction
import setloss.fitting as fitting
import setloss.generating_system as generating_system
import setloss.loss_functions as loss_functions

# classes are looked up softly: a commit without one still runs, and the
# trace lists the wrap points it could not install
PenaltyModel = getattr(fitting, "PenaltyModel", None)
TransformedLoss = getattr(loss_functions, "TransformedLoss", None)

LAYERS = (
    "clustering",
    "loss_functions",
    "fitting",
    "extraction",
    "numeric_kernels",
    "generating_system",
    "monomial_basis",
    "cli",
)

EVAL = "loss_functions.value_and_grad"
DESCENT = "clustering.minimize_from"
ASSIGN = "clustering.assign_labels"
BUILD = "loss_functions.build_transformed_loss"
DESCRIBE = "loss_functions.describe"
FIT = "fitting.fit_generating_matrix"
GRAM = "fitting.PenaltyModel.gram_and_gradient"
JACOBIAN = "fitting.PenaltyModel.commutator_jacobian"
PENALIZED = "fitting.PenaltyModel.penalized_value"
EXTRACT = "extraction.extract_zero_set"
SCHUR = "numeric_kernels.complex_schur"
MIN_EIG = "numeric_kernels.min_eigenvalue_sym"
INTERPOLATE = "generating_system.solve_generating_matrix"
RENDER = ("generating_system.generator_terms", "generating_system.generator_strings")
MULTIPLY = ("generating_system.multiplication_matrices", "generating_system.commutator_residual")
DESIGN = "monomial_basis.monomial_matrix"
BASIS_JACOBIAN = "monomial_basis.basis_jacobian"
CLI_MAIN = "cli.main"


def _eval_name(args) -> str:
    # the rule build_transformed_loss uses to choose the transform
    loss = args[0]
    return f"{EVAL}.{'lifted' if loss.k > loss.n + 1 else 'affine'}"


def _on_assign(tracer, args, assignment) -> None:
    tracer.counts["descent_iterations"] += int(assignment.iterations.sum())
    tracer.counts["nonconverged_descents"] += int((~assignment.converged).sum())


def _on_fit(tracer, args, fit) -> None:
    tracer.counts["lm_iterations"] += fit.iterations
    tracer.counts["rounds"] += fit.rounds
    tracer.counts["fit_nonconverged"] += not fit.converged


def _on_extract(tracer, args, zeros) -> None:
    tracer.note_max("max_imag", zeros.max_imaginary())


def _on_cli_main(tracer, args, code) -> None:
    argv = list(args[0])
    if "--output" in argv:
        out = Path(argv[argv.index("--output") + 1])
        if out.exists():
            tracer.counts["cli_output_bytes"] += out.stat().st_size


# (owner, attribute, span name, result hook)
WRAPS = (
    (cli, "main", CLI_MAIN, _on_cli_main),
    (clustering, "recover_point_set", "clustering.recover_point_set", None),
    (clustering, "assign_labels", ASSIGN, _on_assign),
    (clustering, "minimize_from", DESCENT, None),
    (TransformedLoss, "value_and_grad", _eval_name, None),
    (TransformedLoss, "describe", DESCRIBE, None),
    (clustering, "build_transformed_loss", BUILD, None),
    (cli, "build_transformed_loss", BUILD, None),
    (clustering, "fit_generating_matrix", FIT, _on_fit),
    (PenaltyModel, "__init__", "fitting.PenaltyModel.__init__", None),
    (PenaltyModel, "gram_and_gradient", GRAM, None),
    (PenaltyModel, "penalized_value", PENALIZED, None),
    (PenaltyModel, "commutator_norm", "fitting.PenaltyModel.commutator_norm", None),
    (PenaltyModel, "commutator_jacobian", JACOBIAN, None),
    (clustering, "extract_zero_set", EXTRACT, _on_extract),
    (extraction, "extract_zero_set", EXTRACT, _on_extract),
    (extraction, "complex_schur", SCHUR, None),
    (fitting, "min_eigenvalue_sym", MIN_EIG, None),
    (cli, "solve_generating_matrix", INTERPOLATE, None),
    (clustering, "solve_generating_matrix", INTERPOLATE, None),
    (cli, "generator_terms", RENDER[0], None),
    (cli, "generator_strings", RENDER[1], None),
    (extraction, "multiplication_matrices", MULTIPLY[0], None),
    (extraction, "commutator_residual", MULTIPLY[1], None),
    (fitting, "monomial_matrix", DESIGN, None),
    (loss_functions, "monomial_matrix", DESIGN, None),
    (generating_system, "monomial_matrix", DESIGN, None),
    (loss_functions, "basis_jacobian", BASIS_JACOBIAN, None),
)

# name -> unit, in report order
UNITS = {
    "clustering.descents": "count",
    "clustering.descent_iterations": "count",
    "clustering.nonconverged_descents": "count",
    "clustering.assign_ms": "ms",
    "clustering.descent_self_ms": "ms",
    "clustering.evals_per_iteration": "ratio",
    "loss_functions.evals": "count",
    "loss_functions.eval_us.affine": "us",
    "loss_functions.eval_us.lifted": "us",
    "loss_functions.build_ms": "ms",
    "loss_functions.describe_ms": "ms",
    "fitting.fit_ms": "ms",
    "fitting.lm_iterations": "count",
    "fitting.rounds": "count",
    "fitting.gram_builds": "count",
    "fitting.gram_ms": "ms",
    "fitting.jacobian_ms": "ms",
    "fitting.solve_self_ms": "ms",
    "fitting.step_accept_ratio": "ratio",
    "fitting.nonconverged": "count",
    "extraction.extract_ms": "ms",
    "extraction.calls": "count",
    "extraction.max_imag": "abs",
    "numeric_kernels.schur_ms": "ms",
    "numeric_kernels.min_eig_ms": "ms",
    "generating_system.interpolate_ms": "ms",
    "generating_system.render_ms": "ms",
    "generating_system.multiplication_ms": "ms",
    "monomial_basis.design_ms": "ms",
    "monomial_basis.jacobian_calls": "count",
    "monomial_basis.jacobian_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    **{f"{layer}.time_share": "ratio" for layer in LAYERS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, problems: int, problem_seconds: float) -> dict[str, float]:
    """Every metric of ``UNITS`` from a finished traced run of ``problems`` problems."""
    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_ms(*names):
        return 1e3 * sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / problems

    def self_ms(*names):
        return 1e3 * sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names) / problems

    def eval_us(kind):
        name = f"{EVAL}.{kind}"
        return 1e3 * problems * _ratio(total_ms(name), calls(name))

    counts = tracer.counts
    evals = calls(f"{EVAL}.affine", f"{EVAL}.lifted")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    metrics = {
        "clustering.descents": calls(DESCENT) / problems,
        "clustering.descent_iterations": counts["descent_iterations"] / problems,
        "clustering.nonconverged_descents": counts["nonconverged_descents"] / problems,
        "clustering.assign_ms": total_ms(ASSIGN),
        "clustering.descent_self_ms": self_ms(DESCENT),
        "clustering.evals_per_iteration": _ratio(evals, counts["descent_iterations"]),
        "loss_functions.evals": evals / problems,
        "loss_functions.eval_us.affine": eval_us("affine"),
        "loss_functions.eval_us.lifted": eval_us("lifted"),
        "loss_functions.build_ms": total_ms(BUILD),
        "loss_functions.describe_ms": total_ms(DESCRIBE),
        "fitting.fit_ms": total_ms(FIT),
        "fitting.lm_iterations": counts["lm_iterations"] / problems,
        "fitting.rounds": counts["rounds"] / problems,
        "fitting.gram_builds": calls(GRAM) / problems,
        "fitting.gram_ms": self_ms(GRAM),
        "fitting.jacobian_ms": total_ms(JACOBIAN),
        "fitting.solve_self_ms": self_ms(FIT),
        "fitting.step_accept_ratio": _ratio(calls(GRAM) - counts["rounds"], calls(PENALIZED)),
        "fitting.nonconverged": counts["fit_nonconverged"] / problems,
        "extraction.extract_ms": total_ms(EXTRACT),
        "extraction.calls": calls(EXTRACT) / problems,
        "extraction.max_imag": tracer.maxima.get("max_imag", 0.0),
        "numeric_kernels.schur_ms": total_ms(SCHUR),
        "numeric_kernels.min_eig_ms": total_ms(MIN_EIG),
        "generating_system.interpolate_ms": total_ms(INTERPOLATE),
        "generating_system.render_ms": total_ms(*RENDER),
        "generating_system.multiplication_ms": total_ms(*MULTIPLY),
        "monomial_basis.design_ms": total_ms(DESIGN),
        "monomial_basis.jacobian_calls": calls(BASIS_JACOBIAN) / problems,
        "monomial_basis.jacobian_ms": total_ms(BASIS_JACOBIAN),
        "cli.self_ms": self_ms(CLI_MAIN),
        "cli.output_bytes": counts["cli_output_bytes"] / problems,
    }
    for layer in LAYERS:
        metrics[f"{layer}.time_share"] = _ratio(layer_self[layer], problem_seconds)
    return metrics
