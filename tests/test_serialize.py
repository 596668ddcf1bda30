import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import grassatlas as ga
from grassatlas import serialize
from grassatlas.sampling import random_chart, random_chart_point, random_fiber_matrix


def _rng(seed):
    return np.random.default_rng(seed)


def test_operator_json_roundtrip():
    mat = np.array([[1 + 2j, 0.5], [-1j, 3.0]])
    payload = serialize.operator_to_json(ga.Operator(mat))
    assert payload["rows"] == 2 and payload["cols"] == 2
    assert payload["scalar"] == "complex"
    assert len(payload["data"]) == 4
    back = serialize.operator_from_json(payload)
    assert_allclose(back.matrix, mat)


def test_operator_json_is_row_major():
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    payload = serialize.operator_to_json(ga.Operator(mat))
    assert [entry[0] for entry in payload["data"]] == [1.0, 2.0, 3.0, 4.0]


def test_operator_json_rejects_bad_payloads():
    with pytest.raises(ValueError):
        serialize.operator_from_json({"rows": 2, "cols": 2, "scalar": "real", "data": []})
    with pytest.raises(ValueError):
        serialize.operator_from_json(
            {"rows": 2, "cols": 2, "scalar": "complex", "data": [[1.0, 0.0]]})


_ONE = {"rows": 1, "cols": 1, "scalar": "complex", "data": [[1.0, 0.0]]}


# every malformed payload raises ValueError naming its field, never KeyError or TypeError
@pytest.mark.parametrize("read, payload, field", [
    (serialize.operator_from_json, {"rows": 1, "cols": 1, "scalar": "complex"}, "data"),
    (serialize.operator_from_json, {"cols": 1, "scalar": "complex", "data": []}, "rows"),
    (serialize.operator_from_json, dict(_ONE, rows=None), "rows"),
    (serialize.operator_from_json, dict(_ONE, cols=-1), "cols"),
    (serialize.operator_from_json, dict(_ONE, data=None), "data"),
    # canonical_json writes NaN as null
    (serialize.operator_from_json, dict(_ONE, data=[[None, 0.0]]), "data"),
    (serialize.operator_from_json, dict(_ONE, data=[[1.0]]), "data"),
    (serialize.operator_from_json, [1.0, 0.0], "rows"),
    (serialize.operator_from_json, None, "rows"),
    # JSON booleans load as Python bools, which int and complex would read as 0 or 1
    (serialize.operator_from_json, dict(_ONE, rows=True), "rows"),
    (serialize.operator_from_json, dict(_ONE, cols=True), "cols"),
    (serialize.operator_from_json, dict(_ONE, data=[[True, False]]), "data"),
    (serialize.operator_from_json, dict(_ONE, data=[[1.0, False]]), "data"),
    (serialize.covector_from_json, {"at": 1}, "chart"),
    (serialize.covector_from_json, {"form": _ONE}, "at"),
    (serialize.chart_from_json, {"f": _ONE, "g": _ONE}, "flavor"),
    (serialize.tangent_from_json, "payload", "at"),
    (serialize.tensor_covector_from_json, {"terms": None}, "terms"),
    (serialize.tensor_covector_from_json, {"terms": [{"x": _ONE}]}, "y"),
], ids=["no-data", "no-rows", "null-rows", "negative-cols", "null-data", "null-entry",
        "short-entry", "list", "none", "bool-rows", "bool-cols", "bool-entry",
        "bool-imag", "at-not-object", "no-at", "no-flavor",
        "string", "null-terms", "no-y"])
def test_readers_raise_value_error_naming_the_field(read, payload, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        read(payload)


def test_operator_csv_import(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("1.0,2.0\n3.5,-4.0\n", encoding="utf-8")
    op = serialize.operator_from_csv(path)
    assert_allclose(op.matrix, np.array([[1.0, 2.0], [3.5, -4.0]], dtype=complex))


# a path-like is a file, a str is CSV text (one row too), and a file object is read
@pytest.mark.parametrize("source, rows", [
    ("1.0,2.0", [[1.0, 2.0]]),
    ("1.0,2.0\n3.5,-4.0", [[1.0, 2.0], [3.5, -4.0]]),
    (io.StringIO("1.0,2.0\n"), [[1.0, 2.0]]),
], ids=["one-row-text", "two-row-text", "file-object"])
def test_operator_csv_reads_text_and_files(source, rows):
    assert_allclose(serialize.operator_from_csv(source).matrix, np.array(rows, dtype=complex))


def test_operator_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        serialize.operator_from_csv(path)


def test_subspace_and_chart_roundtrip():
    rng = _rng(1)
    chart = random_chart(6, 2, rng)
    payload = serialize.chart_to_json(chart)
    back = serialize.chart_from_json(payload)
    assert back.flavor == chart.flavor
    assert back.f.is_same(chart.f) and back.g.is_same(chart.g)


def test_chart_point_and_fiber_roundtrips():
    rng = _rng(2)
    chart = random_chart(6, 2, rng)
    pt = random_chart_point(chart, rng)
    back_pt = serialize.chart_point_from_json(serialize.chart_point_to_json(pt))
    assert_allclose(back_pt.coord.matrix, pt.coord.matrix)

    v = ga.TangentVector(pt, ga.Operator(random_fiber_matrix(4, 2, rng)))
    back_v = serialize.tangent_from_json(serialize.tangent_to_json(v))
    assert_allclose(back_v.direction.matrix, v.direction.matrix)

    mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(2, 4, rng)))
    back_mu = serialize.covector_from_json(serialize.covector_to_json(mu))
    assert_allclose(back_mu.form.matrix, mu.form.matrix)

    tc = ga.TensorCovector(pt, ((random_fiber_matrix(2, 1, rng)[:, 0],
                                 random_fiber_matrix(4, 1, rng)[:, 0]),))
    back_tc = serialize.tensor_covector_from_json(serialize.tensor_covector_to_json(tc))
    assert_allclose(back_tc.terms[0][0], tc.terms[0][0])
    assert_allclose(back_tc.terms[0][1], tc.terms[0][1])


def test_covector_payload_is_point_and_form_and_reads_labelled_payloads():
    rng = _rng(4)
    pt = random_chart_point(random_chart(6, 2, rng), rng)
    mu = ga.Covector(pt, ga.Operator(random_fiber_matrix(2, 4, rng)))
    payload = serialize.covector_to_json(mu)
    assert set(payload) == {"at", "form"}
    # payloads of the labelled format carried a class tag and its metadata
    payload.update(class_tag="trace_class_emulated", metadata={"p": 1.0})
    back = serialize.covector_from_json(json.loads(json.dumps(payload)))
    assert np.array_equal(back.form.matrix, mu.form.matrix)
    assert np.array_equal(back.at.coord.matrix, pt.coord.matrix)
    assert back.at.chart.same_chart(pt.chart)


def test_fiber_json_is_json_serializable():
    rng = _rng(3)
    chart = random_chart(4, 2, rng)
    pt = random_chart_point(chart, rng)
    text = json.dumps(serialize.chart_point_to_json(pt))
    assert json.loads(text)["chart"]["flavor"] == "split"


def test_canonical_json_formatting():
    text = serialize.canonical_json({"b": 1.0 / 3.0, "a": [1, True, None], "c": "x"})
    assert text == '{"a":[1,true,null],"b":0.33333333333333331,"c":"x"}'
    assert json.loads(text)["b"] == pytest.approx(1.0 / 3.0)


def test_canonical_json_sorts_keys_deterministically():
    one = serialize.canonical_json({"z": 1, "a": 2})
    two = serialize.canonical_json({"a": 2, "z": 1})
    assert one == two


def test_canonical_json_maps_non_finite_to_null():
    text = serialize.canonical_json({"a": float("nan"), "b": float("inf")})
    assert json.loads(text) == {"a": None, "b": None}
