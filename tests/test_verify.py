import json

import pytest

from grassatlas.errors import ConfigError
from grassatlas.verify import SuiteConfig, emit_report, run_suite
from grassatlas.verify.checks import registry
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
        SuiteConfig(tolerances={"made_up_check": 1e-6})
    with pytest.raises(ConfigError):
        SuiteConfig(tolerances={"chart_covering": -1.0})


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


def test_cli_rejects_bad_tolerance_syntax():
    assert main(["--tol", "oops"]) == 2


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
    None,  # the config file does not exist
], ids=["unknown-key", "trials", "seed", "tolerance", "missing-file"])
def test_cli_rejects_unknown_config_key(tmp_path, content):
    cfg_path = tmp_path / "bad.cfg"
    if content is not None:
        cfg_path.write_text(content, encoding="utf-8")
    assert main(["--config", str(cfg_path)]) == 2
