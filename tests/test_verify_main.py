"""``python -m grassatlas.verify`` runs the CLI in a fresh interpreter and exits with its code."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(*args, text=True, **env):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "grassatlas.verify", *args],
                          capture_output=True, text=text, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_module_run_prints_a_passing_json_report():
    proc = _run_module("--suite", "atlas", "--dim", "4", "--trials", "1", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks and all(check["pass"] for check in checks)


def test_module_run_refuses_bad_input_with_exit_2_and_no_traceback():
    proc = _run_module("--trials", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_dimension_too_large_to_allocate_fails_its_checks_with_no_traceback():
    # numpy refuses every array of this ambient dimension before allocating it
    proc = _run_module("--suite", "atlas", "--dim", "2000000000000000000", "--trials", "1",
                       "--format", "json")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    checks = {check["name"]: check for check in json.loads(proc.stdout)["checks"]}
    assert checks.pop("schatten_ideal")["pass"]  # it pins n = 8
    assert checks
    for check in checks.values():
        assert not check["pass"] and check["raised"].startswith(("ValueError", "MemoryError"))


def test_json_report_is_the_same_bytes_in_every_process():
    args = ("--suite", "all", "--dim", "4", "--trials", "2", "--format", "json")
    first, second = (_run_module(*args, text=False, PYTHONHASHSEED=seed) for seed in "01")
    assert first.returncode == second.returncode == 0, second.stderr
    assert first.stdout and first.stdout == second.stdout
