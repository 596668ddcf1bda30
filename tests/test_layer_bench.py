import json

import pytest

from grassatlas import bench

LAYERS = {"ChartId.hilbert", "ChartId.split",
          *(f"{layer}[{flavor}]"
            for layer in ("chart_forward", "transition_base", "transition_tangent",
                          "transition_cotangent", "pushforward_factors", "pushforward_tensor")
            for flavor in ("hilbert", "split"))}


def test_layer_bench_schema_at_n8(tmp_path):
    out = tmp_path / "bench.json"
    assert bench.main(["--n", "8", "--out", str(out), "--label", "first"]) == 0
    assert bench.main(["--n", "8", "--out", str(out), "--label", "second"]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1 and set(report["columns"]) == {"first", "second"}
    column = report["columns"]["second"]
    env = column["env"]
    assert {"python", "numpy", "blas", "nproc", "thread_pins", "repeats"} <= set(env)
    assert set(env["thread_pins"]) == set(bench.THREAD_PINS)
    assert set(column["layers"]) == LAYERS
    for per_n in column["layers"].values():
        assert set(per_n) == {"8"}
        assert per_n["8"]["median_ms"] > 0 and per_n["8"]["iqr_ms"] >= 0


@pytest.mark.parametrize("argv", [["--n", "8,x"], ["--n", "1"]])
def test_layer_bench_rejects_bad_sizes(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        bench.main([*argv, "--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2


def test_layer_bench_refuses_foreign_file(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--n", "8", "--out", str(out)])
    assert exc.value.code == 2
    assert out.read_text() == "[1, 2]"
