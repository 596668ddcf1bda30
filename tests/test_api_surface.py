"""The library's settable values are pinned, so a new option shows up in this diff.

A settable value is a parameter with a default, or a dataclass field with a
default, named ``module:qualname.name``.  A new one fails this test until
``SETTABLE`` lists it; a removed one fails it until it is struck here.
"""

import ast
from pathlib import Path

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
    "grassatlas.restricted:RungResult.skipped",
    "grassatlas.restricted:preservation_experiment.seed",
    "grassatlas.restricted:preservation_experiment.tail_cutoff",
    "grassatlas.sampling:_log_uniform.size",
    "grassatlas.sampling:random_chart_containing.flavor",
    "grassatlas.sampling:random_fiber_matrix.scale",
    "grassatlas.sampling:random_chart_point.scale",
    "grassatlas.verify.checks:CheckDef.pinned_trials",
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
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        found += _settable(ast.parse(path.read_text(encoding="utf-8")), module)
    assert len(found) == len(set(found))
    assert set(found) == SETTABLE
