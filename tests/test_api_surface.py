"""The library's settable values and public names are pinned, so a change shows up in this diff.

A settable value is a parameter with a default, or a dataclass field with a
default, named ``module:qualname.name``.  A public name is an entry of
``grassatlas.__all__``, or ``Class.member`` for a public member of an exported
class: a method, property, field or class attribute defined by the class or a
``grassatlas`` base of it, or an attribute its ``__init__`` sets on ``self``.
A new one fails this test until ``SETTABLE`` or ``PUBLIC`` lists it; a removed
one fails it until it is struck here.
"""

import ast
import inspect
from pathlib import Path

import grassatlas

SRC = Path(__file__).resolve().parents[1] / "src" / "grassatlas"

SETTABLE = {
    "grassatlas.atlas:ChartId.flavor",
    "grassatlas.atlas:in_chart_domain.tol_domain",
    "grassatlas.atlas:chart_forward.tol_domain",
    "grassatlas.atlas:chart_forward_projector.tol_domain",
    "grassatlas.atlas:transition_base.tol_domain",
    "grassatlas.bench:main.argv",
    "grassatlas.bundles:transition_tangent.tol_domain",
    "grassatlas.bundles:transition_cotangent.tol_domain",
    "grassatlas.bundles:pushforward_factors.tol_domain",
    "grassatlas.bundles:pushforward_tensor.tol_domain",
    "grassatlas.errors:_ConditioningError.__init__.conditioning",
    "grassatlas.errors:_ConditioningError.__init__.tol",
    "grassatlas.operators:_require_finite.what",
    "grassatlas.operators:DecayProfile.param",
    "grassatlas.operators:DecayProfile.values.skip",
    "grassatlas.restricted:generate_restricted_point.virtual_dim",
    "grassatlas.restricted:generate_restricted_point.seed",
    "grassatlas.restricted:build_truncation_ladder.virtual_dim",
    "grassatlas.restricted:build_truncation_ladder.seed",
    "grassatlas.restricted:preservation_experiment.seed",
    "grassatlas.restricted:preservation_experiment.tail_cutoff",
    "grassatlas.sampling:_log_uniform.size",
    "grassatlas.sampling:random_chart_containing.flavor",
    "grassatlas.sampling:random_fiber_matrix.scale",
    "grassatlas.sampling:random_chart_point.scale",
    "grassatlas.verify.checks:_check.trials",
    "grassatlas.verify.checks:_chart_chain.count",
    "grassatlas.verify.checks:_chart_chain.scale",
    "grassatlas.verify.cli:main.argv",
    "grassatlas.verify.runner:SuiteConfig.suite",
    "grassatlas.verify.runner:SuiteConfig.dims",
    "grassatlas.verify.runner:SuiteConfig.trials",
    "grassatlas.verify.runner:SuiteConfig.seed",
    "grassatlas.verify.runner:SuiteConfig.tolerances",
    "grassatlas.verify.runner:SuiteConfig.ladder",
    "grassatlas.verify.runner:emit_report.format",
}

PUBLIC = {
    # grassatlas.__all__: functions, constants and member-less exceptions
    "BadProfile", "ChartMismatch", "ConfigError", "DEFAULT_TOL_DOMAIN", "DEFAULT_TOL_EQ",
    "DEFAULT_TOL_SPLIT", "DimensionMismatch", "GrassAtlasError", "LadderMismatch",
    "PairingMismatch", "PredualUnavailable", "build_truncation_ladder", "chart_forward",
    "chart_forward_projector", "chart_inverse", "compactness_tail", "decay_operator",
    "generate_restricted_point", "graph_chart_family", "haar_frame", "identity_chart_family",
    "in_chart_domain", "membership_report", "oblique_projections", "operator_norm",
    "operator_to_tensor", "precotangent_covector", "preservation_experiment",
    "pushforward_factors", "pushforward_tensor", "schatten_norm", "singular_values",
    "split_conditioning", "swap_chart_family", "tensor_pairing", "tensor_pushforward_terms",
    "tensor_to_operator", "trace_pairing", "transition_base", "transition_cotangent",
    "transition_tangent", "virtual_dimension", "virtual_dimension_by_rank",
    # exported classes and their public members
    "ChartDomainViolation", "ChartDomainViolation.conditioning", "ChartDomainViolation.tol",
    "ChartId", "ChartId.ambient_dim", "ChartId.f", "ChartId.flavor", "ChartId.g",
    "ChartId.hilbert", "ChartId.opposite", "ChartId.same_chart",
    "ChartPoint", "ChartPoint.chart", "ChartPoint.coord",
    "Covector", "Covector.at", "Covector.form",
    "DecayProfile", "DecayProfile.geometric", "DecayProfile.kind", "DecayProfile.param",
    "DecayProfile.power", "DecayProfile.values", "DecayProfile.zero",
    "DomainCheck", "DomainCheck.conditioning", "DomainCheck.contains",
    "FactorMismatch", "FactorMismatch.bound", "FactorMismatch.residual",
    "Operator", "Operator.cols", "Operator.matrix", "Operator.rows", "Operator.shape",
    "PolarizedModel", "PolarizedModel.ambient_dim", "PolarizedModel.h_minus",
    "PolarizedModel.h_plus", "PolarizedModel.n_minus", "PolarizedModel.n_plus",
    "PreservationReport", "PreservationReport.dims", "PreservationReport.p",
    "PreservationReport.passed", "PreservationReport.per_rung", "PreservationReport.spread",
    "PreservationReport.to_dict",
    "RestrictedPoint", "RestrictedPoint.diff_norm", "RestrictedPoint.minus_norm",
    "RestrictedPoint.p", "RestrictedPoint.plus_conditioning", "RestrictedPoint.virtual_dim",
    "RestrictedPoint.w",
    "SchattenReport", "SchattenReport.p", "SchattenReport.power_sum",
    "SchattenReport.singular_values", "SchattenReport.value",
    "SingularTail", "SingularTail.cutoff", "SingularTail.dims", "SingularTail.tail_norms",
    "SplitFailure", "SplitFailure.conditioning", "SplitFailure.tol",
    "Subspace", "Subspace.ambient_dim", "Subspace.basis", "Subspace.complement", "Subspace.dim",
    "Subspace.distance_to", "Subspace.from_span", "Subspace.is_same",
    "TangentVector", "TangentVector.at", "TangentVector.direction",
    "TensorCovector", "TensorCovector.at", "TensorCovector.terms",
    "TruncationLadder", "TruncationLadder.models", "TruncationLadder.points",
    "TruncationLadder.profile",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settable(node, module, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{module}:{name}.{a.arg}" for a in defaulted)
            yield from _settable(child, module, name + ".")
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                yield from (f"{module}:{name}.{field.target.id}" for field in child.body
                            if isinstance(field, ast.AnnAssign) and field.value is not None)
            yield from _settable(child, module, name + ".")
        else:
            yield from _settable(child, module, prefix)


def test_settable_values_are_pinned():
    found = []
    for module, tree in _modules():
        found += _settable(tree, module)
    assert len(found) == len(set(found))
    assert set(found) == SETTABLE


def _members(node: ast.ClassDef):
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child.name
            if child.name == "__init__":
                yield from (sub.attr for sub in ast.walk(child)
                            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and getattr(sub.value, "id", None) == "self")
        elif isinstance(child, ast.AnnAssign):
            yield child.target.id
        elif isinstance(child, ast.Assign):
            yield from (t.id for t in child.targets if isinstance(t, ast.Name))


def test_public_names_are_pinned():
    classes = {(module, node.name): node for module, tree in _modules()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    found = set(grassatlas.__all__)
    for name in grassatlas.__all__:
        obj = getattr(grassatlas, name)
        for base in inspect.getmro(obj) if inspect.isclass(obj) else ():
            node = classes.get((base.__module__, base.__name__))
            if node is not None:
                found.update(f"{name}.{member}" for member in _members(node)
                             if not member.startswith("_"))
    assert found == PUBLIC
