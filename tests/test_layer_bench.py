import json

import numpy as np
import pytest

from grassatlas import atlas, bench

LAYERS = {"ChartId.hilbert", "ChartId.split", "ChartId.hilbert[coordinate]",
          "ChartId.split[coordinate]", "chart_forward[coordinate]",
          "transition_cotangent[coordinate]", "membership_report", "Subspace.distance_to",
          *(f"{layer}[{flavor}]"
            for layer in ("chart_forward", "transition_base", "transition_tangent",
                          "transition_cotangent", "pushforward_factors", "pushforward_tensor",
                          "pushforward")
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
        stats = per_n["8"]
        assert set(stats) == {"median_ms", "iqr_ms", "min_ms", "peak_mb"}
        assert 0 < stats["min_ms"] <= stats["median_ms"] and stats["iqr_ms"] >= 0
        assert stats["peak_mb"] > 0


def test_layer_bench_extends_a_file_written_before_peak_mb(tmp_path):
    out = tmp_path / "bench.json"
    old = {"median_ms": 1.0, "iqr_ms": 0.1, "min_ms": 0.9}
    out.write_text(json.dumps({"schema": 1, "columns": {"parent": {
        "env": {}, "layers": {"ChartId.hilbert": {"8": old}}}}}))
    assert bench.main(["--n", "8", "--out", str(out), "--label", "change"]) == 0
    columns = json.loads(out.read_text())["columns"]
    assert columns["parent"]["layers"]["ChartId.hilbert"]["8"] == old
    assert "peak_mb" in columns["change"]["layers"]["ChartId.hilbert"]["8"]


def test_layer_bench_peak_counts_what_the_call_allocates():
    # a chart on the coordinate blocks keeps its picks only: at n = 64 the complement's
    # 32 indices are what it allocates, with no 64 x 32 basis (32 KiB) beside them
    stats = bench._time(bench._layers(64)["ChartId.hilbert[coordinate]"])
    assert 32 * np.dtype(np.intp).itemsize / 2 ** 20 <= stats["peak_mb"] < 4 / 1024
    assert bench._peak_mb(lambda: np.ones(2 ** 17)) >= 1.0


def test_layer_bench_times_fresh_points(monkeypatch):
    # a repeat on the warm-up call's point would be a memo hit and solve nothing
    prepare = bench._layers(8)["transition_tangent[split]"]
    solves = []
    solve = atlas._coordinates
    monkeypatch.setattr(atlas, "_coordinates", lambda *args: solves.append(1) or solve(*args))
    for _ in range(3):
        prepare()()
    assert len(solves) == 3


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


@pytest.mark.parametrize("out", ["", "missing/bench.json"], ids=["directory", "no-parent"])
def test_layer_bench_refuses_an_unwritable_out_before_timing(monkeypatch, tmp_path, out):
    monkeypatch.setattr(bench, "run", lambda sizes: pytest.fail("timed before --out was checked"))
    with pytest.raises(SystemExit) as exc:
        bench.main(["--n", "8", "--out", str(tmp_path / out)])
    assert exc.value.code == 2
