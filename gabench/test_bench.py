"""Fast self-test of the benchmark at tiny sizes: schema, metric names and units, gates.

    python3 -m pytest -q gabench/test_bench.py

No timing is gated; only the shape of the output and the correctness gates are.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS before numpy is imported)

run._import_library()

from workloads import WORKLOADS, Sizes, TransportN256  # noqa: E402

TINY = Sizes(n=8, ladder_sides=(4, 8),
             verify_args=("--dim", "4", "--trials", "2", "--ladder", "4,8"))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_declared_metrics(workload, trace):
    result = run.run(workload, seed=3, seconds=0.1, trace=trace, sizes=TINY)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == \
        [(name, entry["unit"]) for name, entry in result["metrics"].items()]
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.loads(json.dumps(result))


def test_benchmark_json_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_inputs_are_a_function_of_the_seed():
    def inputs(seed):
        workload = TransportN256(seed, TINY)
        workload.setup()
        return [workload.kind_of(i) for i in range(14)], workload.pool[0].f.basis.matrix

    kinds_a, basis_a = inputs(5)
    kinds_b, basis_b = inputs(5)
    _, basis_c = inputs(6)
    assert kinds_a == kinds_b and (basis_a == basis_b).all()
    assert not (basis_a == basis_c).all()
    assert sorted(kinds_a[:7]) == sorted(TransportN256.kinds)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "gabench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "gabench/run.py", "--workload", "ladder_preservation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
