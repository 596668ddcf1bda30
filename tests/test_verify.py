import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassatlas import sampling
from grassatlas.errors import ConfigError, SplitFailure
from grassatlas.operators import Operator, split_conditioning
from grassatlas.verify import SuiteConfig, checks, emit_report, run_suite
from grassatlas.verify.checks import CheckDef, registry
from grassatlas.verify.cli import main, read_config_file

EXPECTED_CHECKS = {
    "atlas": {
        "projection_identities", "schatten_ideal", "schatten_unitary_invariance",
        "schatten_monotonicity", "chart_roundtrip_fiber", "chart_roundtrip_subspace",
        "transition_consistency", "transition_cocycle", "chart_covering",
        "hilbert_specialization", "near_boundary_errors",
    },
    "bundles": {
        "tangent_jacobian_fd", "tangent_jacobian_complex_step", "duality_invariance",
        "cotangent_contravariance", "tensor_commuting_square", "pairing_bilinearity",
    },
    "restricted": {
        "virtual_dim_invariance", "diff_norm_unitary_invariance",
        "membership_envelope", "ladder_embedding_exact",
    },
}


def test_registry_covers_declared_invariants():
    by_suite = {}
    for check in registry():
        by_suite.setdefault(check.suite, set()).add(check.name)
    assert by_suite == EXPECTED_CHECKS


def test_registry_names_are_unique():
    names = [check.name for check in registry()]
    assert len(names) == len(set(names))


def test_run_suite_is_deterministic():
    cfg = SuiteConfig(suite="atlas", dims=(8,), trials=50, seed=42)
    first = emit_report(cfg, run_suite(cfg), format="json")
    second = emit_report(cfg, run_suite(cfg), format="json")
    assert first == second


def test_tolerance_override_isolates_one_check():
    cfg = SuiteConfig(suite="atlas", dims=(6,), trials=10, seed=1,
                      tolerances={"chart_roundtrip_fiber": 1e-30})
    results = run_suite(cfg)
    failing = [r.name for r in results if not r.passed]
    assert failing == ["chart_roundtrip_fiber"]


def test_emit_report_empty_results():
    cfg = SuiteConfig(suite="atlas", dims=(4,), trials=1, seed=0)
    payload = json.loads(emit_report(cfg, [], format="json"))
    assert payload["checks"] == []
    assert payload["suite"] == "atlas"


def test_emit_report_json_reparses_to_results():
    cfg = SuiteConfig(suite="bundles", dims=(6,), trials=5, seed=3)
    results = run_suite(cfg)
    payload = json.loads(emit_report(cfg, results, format="json"))
    assert payload["seed"] == 3 and payload["dims"] == [6]
    for entry, result in zip(payload["checks"], results):
        assert entry["name"] == result.name
        assert entry["pass"] == result.passed
        assert entry["trials"] == result.trials
        assert entry["max_abs_error"] == pytest.approx(result.max_abs_error)


def test_emit_report_text_form():
    cfg = SuiteConfig(suite="restricted", dims=(8,), trials=3, seed=5,
                      ladder=(8, 16, 24))
    results = run_suite(cfg)
    text = emit_report(cfg, results, format="text")
    lines = text.splitlines()
    assert len(lines) == len(results) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="nope")
    with pytest.raises(ConfigError):
        SuiteConfig(trials=0)
    with pytest.raises(ConfigError):
        SuiteConfig(dims=(1,))
    with pytest.raises(ConfigError):
        SuiteConfig(ladder=(8,))
    with pytest.raises(ConfigError):
        SuiteConfig(ladder=(0, 4))
    with pytest.raises(ConfigError):
        SuiteConfig(seed=-1)
    with pytest.raises(ConfigError):
        SuiteConfig(tolerances={"made_up_check": 1e-6})
    with pytest.raises(ConfigError):
        SuiteConfig(tolerances={"chart_covering": -1.0})
    # from the Python API, not parsed by the CLI: a string bound and no mapping at all
    with pytest.raises(ConfigError, match="chart_covering"):
        SuiteConfig(tolerances={"chart_covering": "1e-3"})
    with pytest.raises(ConfigError, match="tolerances"):
        SuiteConfig(tolerances=None)
    # True is a Real to Python, but would run the check with bound 1.0
    with pytest.raises(ConfigError, match="projection_identities"):
        SuiteConfig(tolerances={"projection_identities": True})


def test_cli_writes_report_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", "bundles", "--dim", "6", "--trials", "3",
                 "--seed", "7", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["suite"] == "bundles"

    code = main(["--suite", "bundles", "--dim", "6", "--trials", "3", "--seed", "7",
                 "--tol", "duality_invariance=1e-30",
                 "--format", "json", "--out", str(out)])
    assert code == 1


def test_cli_atlas_suite_holds_at_n128(capsys):
    # sampled charts keep their conditioning floors at every n, so nothing is re-drawn
    assert main(["--suite", "atlas", "--dim", "128", "--trials", "2"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys, where):
    # both are known before the suite runs, so it must not run
    out = tmp_path / "absent" / "report.json" if where == "missing-dir" else tmp_path
    with mock.patch("grassatlas.verify.cli.run_suite") as run:
        code = main(["--suite", "atlas", "--dim", "4", "--trials", "1", "--out", str(out)])
    assert code == 2 and not run.called
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "absent").exists()


def test_cli_rejects_bad_tolerance_syntax():
    assert main(["--tol", "oops"]) == 2


# an infinite tolerance would PASS even a raising trial, which scores +inf
@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--ladder", "0,4"),
                                         ("--tol", "projection_identities=inf")])
def test_cli_rejects_negative_seed_and_empty_ladder_rung(capsys, flag, value):
    assert main(["--suite", "restricted", "--trials", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_config_file_with_flag_precedence(tmp_path):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(
        "suite = atlas\n"
        "dims = 6\n"
        "trials = 4\n"
        "seed = 11\n"
        "# comment line\n"
        "tol.chart_roundtrip_fiber = 1e-30\n",
        encoding="utf-8")
    options = read_config_file(cfg_path)
    assert options["suite"] == "atlas"
    assert options["tolerances"] == {"chart_roundtrip_fiber": 1e-30}

    out = tmp_path / "report.json"
    # the flag must beat the config file's suite
    code = main(["--config", str(cfg_path), "--suite", "bundles",
                 "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["suite"] == "bundles"
    assert code == 0  # the overridden check lives in the atlas suite, not bundles

    code = main(["--config", str(cfg_path), "--format", "json", "--out", str(out)])
    assert code == 1  # now the forced roundtrip failure applies


@pytest.mark.parametrize("content", [
    "wibble = 3\n",
    "trials = ten\n",
    "seed = x\n",
    "tol.duality_invariance = abc\n",
    "tol.duality_invariance = inf\n",
    "tol.duality_invariance = nan\n",
    "seed = -1\n",
    "ladder = 0,4\n",
    "format = xml\n",
    "out = .\n",  # the working directory, which exists
    None,  # the config file does not exist
], ids=["unknown-key", "trials", "seed", "tolerance", "infinite-tolerance", "nan-tolerance",
        "negative-seed", "empty-ladder-rung", "unknown-format", "out-is-a-dir",
        "missing-file"])
def test_cli_rejects_unknown_config_key(tmp_path, content):
    cfg_path = tmp_path / "bad.cfg"
    if content is not None:
        cfg_path.write_text(content, encoding="utf-8")
    with mock.patch("grassatlas.verify.cli.run_suite") as run:
        assert main(["--config", str(cfg_path)]) == 2
    assert not run.called


@pytest.mark.parametrize("tolerance, outcomes, pinned, expected, worst", [
    (1e-2, [1e-3, 2e-3, 2e-3], None, 2e-3, "9.0.1"),
    (1e-2, [0.1, math.nan, 0.5], None, math.inf, "9.0.1"),
    (0.0, [False, True, False, True], None, 2.0, "9.0.3"),
    (1e-2, [5e-3], 1, 5e-3, "9.0.0"),
], ids=["first-strict-max", "nan-is-inf", "exact-counts", "pinned-once"])
def test_trial_loop_semantics(monkeypatch, tolerance, outcomes, pinned, expected, worst):
    calls = []

    def body(cfg, trial, rng, n):
        calls.append((trial, n))
        return outcomes[trial]

    fake = CheckDef("fake", "atlas", tolerance, body, pinned)
    monkeypatch.setattr(checks, "registry", lambda: (fake,))
    trials = 5 if pinned else len(outcomes)
    (result,) = run_suite(SuiteConfig(suite="atlas", dims=(4, 6), trials=trials, seed=9))
    assert result.max_abs_error == expected
    assert result.worst_seed == worst
    assert result.trials == len(outcomes) == len(calls)
    assert calls == [(t, (4, 6)[t % 2]) for t in range(len(outcomes))]
    assert result.passed == (expected <= tolerance)


def test_nan_error_fails_its_check(monkeypatch):
    def nan_transition(pt, target, *args, **kwargs):
        # a transition whose coordinate came out NaN; a ChartPoint rejects one, and
        # the check reads only the coordinate
        shape = (target.g.dim, target.f.dim)
        return SimpleNamespace(coord=Operator(np.full(shape, np.nan)))

    monkeypatch.setattr(checks, "transition_base", nan_transition)
    cfg = SuiteConfig(suite="atlas", dims=(6,), trials=3, seed=42)
    result = next(r for r in run_suite(cfg) if r.name == "transition_consistency")
    assert not result.passed
    assert result.max_abs_error == math.inf
    assert result.worst_seed == "42.6.0"
    entry = json.loads(emit_report(cfg, [result], format="json"))["checks"][0]
    assert entry["max_abs_error"] is None and "raised" not in entry


@pytest.mark.parametrize("exc", [SplitFailure("no chart"), np.linalg.LinAlgError("singular")],
                         ids=["SplitFailure", "LinAlgError"])
def test_raising_trial_fails_its_check_only(monkeypatch, tmp_path, exc):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(checks, "random_chart_containing", raising)
    out = tmp_path / "report.json"
    code = main(["--suite", "atlas", "--dim", "6", "--trials", "3", "--seed", "42",
                 "--format", "json", "--out", str(out)])
    assert code == 1
    entries = {c["name"]: c for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}
    assert set(entries) == EXPECTED_CHECKS["atlas"]
    failed = {name for name, c in entries.items() if not c["pass"]}
    assert failed == {"chart_roundtrip_subspace", "transition_consistency",
                      "transition_cocycle", "hilbert_specialization"}
    subspace = entries["chart_roundtrip_subspace"]
    assert subspace["max_abs_error"] is None
    assert subspace["worst_seed"] == "42.5.0"
    assert subspace["raised"] == f"{type(exc).__name__}: {exc}"
    assert all("raised" not in c for c in entries.values() if c["pass"])

    cfg = SuiteConfig(suite="atlas", dims=(6,), trials=1, seed=42)
    text = emit_report(cfg, run_suite(cfg), format="text")
    assert f"raised={type(exc).__name__}: {exc} at 42.5.0" in text


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call; return the record."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_chart_covering_stops_at_the_first_chart_that_holds_h(monkeypatch):
    draws = _counting(monkeypatch, checks, "random_chart")
    assert not checks._chart_covering(SuiteConfig(), 0, sampling.derive_rng(42, 8, 0), 8)
    assert len(draws) == 1


def test_chart_covering_draws_the_whole_pool_before_a_violation(monkeypatch):
    draws = _counting(monkeypatch, checks, "random_chart")
    monkeypatch.setattr(checks, "in_chart_domain",
                        lambda h, chart: SimpleNamespace(conditioning=0.0))
    assert checks._chart_covering(SuiteConfig(), 0, sampling.derive_rng(42, 8, 0), 8)
    assert len(draws) == 8


def test_projection_identities_builds_no_chart(monkeypatch):
    charts = _counting(monkeypatch, sampling, "ChartId")
    error = checks._projection_identities(SuiteConfig(), 0, sampling.derive_rng(42, 0, 0), 8)
    assert error <= 1e-12
    assert charts == []


def test_schatten_monotonicity_takes_one_svd_per_trial(monkeypatch):
    # the four norms are read from one spectrum, as SchattenReport turns it into each
    svds = _counting(monkeypatch, np.linalg, "svd")
    error = checks._schatten_monotonicity(SuiteConfig(), 0, sampling.derive_rng(42, 3, 0), 8)
    assert error <= 1e-12
    assert len(svds) == 1


def _log_uniform_at_low(low, high, rng, size=None):
    """``sampling._log_uniform`` held at ``low``; it still takes its draw from ``rng``."""
    rng.uniform(size=size)
    return low if size is None else np.full(size, low)


AT_THE_FLOORS = ("chart_roundtrip_fiber", "chart_roundtrip_subspace", "transition_consistency",
                 "transition_cocycle", "duality_invariance", "tensor_commuting_square")


# every sampled split chart at SPLIT_FLOOR, every drawn margin at MARGIN_FLOOR, a fiber
# of rank one: the check bodies still hold at their registry tolerances, at any n
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 64), st.booleans())
def test_checks_hold_at_the_sampling_floors(seed, n, rank_one):
    k = 1 if rank_one else n - 1
    by_name = {check.name: check for check in registry()}
    with mock.patch.object(sampling, "_log_uniform", _log_uniform_at_low), \
            mock.patch.object(checks, "_subspace_dim", lambda rng, n: k):
        _, chain = checks._chart_chain(sampling.derive_rng(seed), n, k)
        for chart in chain:
            assert split_conditioning(chart.f, chart.g) == pytest.approx(
                sampling.SPLIT_FLOOR, rel=1e-9)
        for index, name in enumerate(AT_THE_FLOORS):
            check = by_name[name]
            error = check.fn(SuiteConfig(), 0, sampling.derive_rng(seed, index), n)
            assert error <= check.tolerance, name
