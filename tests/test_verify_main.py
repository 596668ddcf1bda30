"""``python -m grassatlas.verify`` runs the CLI in a fresh interpreter and exits with its code."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "grassatlas.verify", *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


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
