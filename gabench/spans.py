"""In-memory span tracer that wraps grassatlas's public functions from outside.

Tracing lives in the benchmark, not in the library: :meth:`Tracer.install`
replaces each traced callable in every ``grassatlas`` namespace that binds it
(the package itself, ``atlas``, ``bundles``, ``restricted``, ``sampling``,
``verify.checks``, ``verify.oracles``, ``verify.runner``, ``verify.cli``, ...),
wraps the ``numpy.linalg`` entry points the library calls, and wraps every
registered verify check through ``checks.registry()``.  :meth:`Tracer.uninstall`
puts every original back.

A span is ``(name, start, end, parent, op, ok, gflop)``.  Self time of a span is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Module-level functions wrapped in each grassatlas module, by module.
FUNCTIONS = {
    "operators": ("oblique_projections", "schatten_norm", "haar_frame",
                  "split_conditioning", "singular_values", "operator_norm",
                  "compactness_tail", "decay_operator"),
    "atlas": ("chart_forward", "chart_inverse", "transition_base", "in_chart_domain",
              "chart_forward_projector"),
    "bundles": ("transition_tangent", "transition_cotangent", "pushforward_factors",
                "pushforward_tensor", "trace_pairing", "tensor_pairing",
                "tensor_to_operator", "operator_to_tensor", "tensor_pushforward_terms"),
    "restricted": ("build_truncation_ladder", "membership_report",
                   "preservation_experiment", "generate_restricted_point",
                   "virtual_dimension_by_rank"),
    "sampling": ("random_chart", "random_chart_containing", "random_chart_point",
                 "random_subspace", "near_boundary_subspace"),
    "serialize": ("canonical_json",),
    "verify.runner": ("run_suite", "emit_report"),
    "verify.oracles": ("finite_difference_tangent", "complex_step_tangent"),
}

# Methods wrapped on their class; ChartId.__init__ covers ChartId(...) and
# ChartId.hilbert, which constructs through it.
METHODS = (
    ("atlas", "ChartId", "__init__", "atlas.ChartId"),
    ("atlas", "Subspace", "complement", "atlas.Subspace.complement"),
    ("atlas", "Subspace", "distance_to", "atlas.Subspace.distance_to"),
)

LINALG = ("svd", "solve", "qr", "norm")
LINALG_PREFIX = "operators.linalg."


def _shape(a) -> tuple[int, int]:
    shape = np.shape(a)
    if len(shape) == 1:
        return shape[0], 1
    return shape[-2], shape[-1]


def _complex_factor(a) -> float:
    # one complex multiply-add costs four real ones
    return 4.0 if np.iscomplexobj(a) else 1.0


def _gflop_svd(a, *args, full_matrices=True, compute_uv=True, **kwargs) -> float:
    m, n = _shape(a)
    m, n = max(m, n), min(m, n)
    if compute_uv:
        flops = 14.0 * m * n * n + 8.0 * n ** 3
    else:
        flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3
    return _complex_factor(a) * flops * 1e-9


def _gflop_qr(a, mode="reduced") -> float:
    m, n = _shape(a)
    k = min(m, n)
    flops = 2.0 * m * n * k - 2.0 * k ** 3 / 3 if m >= n else 2.0 * n * m * m - 2.0 * m ** 3 / 3
    if mode in ("reduced", "complete"):
        q_cols = m if mode == "complete" else k
        flops += 4.0 * m * q_cols * k - 2.0 * (m + q_cols) * k * k + 4.0 * k ** 3 / 3
    return _complex_factor(a) * flops * 1e-9


def _gflop_solve(a, b) -> float:
    n = np.shape(a)[-1]
    nrhs = _shape(b)[1]
    return _complex_factor(a) * (2.0 * n ** 3 / 3 + 2.0 * n * n * nrhs) * 1e-9


def _is_norm2(args, kwargs) -> bool:
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return order == 2 and np.ndim(args[0]) == 2


def _gflop_norm(a, *args, **kwargs) -> float:
    return _gflop_svd(a, compute_uv=False) if _is_norm2((a,) + args, kwargs) else 0.0


_LINALG_GFLOP = {"svd": _gflop_svd, "qr": _gflop_qr, "solve": _gflop_solve,
                 "norm": _gflop_norm}

# span record fields
NAME, START, END, PARENT, OP, OK, GFLOP = range(7)


class Tracer:
    """Records spans around the wrapped callables while ``enabled`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.enabled = False
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (the op's root span)."""
        rec = self._open(self.name_id(name), 0.0)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(rec, ok)

    def _open(self, nid: int, gflop: float) -> list:
        rec = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, True, gflop]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list, ok: bool) -> None:
        rec[END] = time.perf_counter()
        rec[OK] = ok
        self._stack.pop()

    def wrap(self, name: str, fn, name_of=None, gflop_of=None):
        """Wrapper of ``fn`` that records a span named ``name`` (or ``name_of(args, kwargs)``)."""
        tracer = self
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer.name_id(name_of(args, kwargs)) if name_of else nid
            gflop = gflop_of(*args, **kwargs) if gflop_of else 0.0
            rec = tracer._open(span_id, gflop)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._close(rec, ok)
        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable wherever a grassatlas module binds it."""
        for module in FUNCTIONS:
            importlib.import_module(f"grassatlas.{module}")
        from grassatlas.verify import checks

        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "grassatlas" or key.startswith("grassatlas.")]
        for module, names in FUNCTIONS.items():
            source = sys.modules[f"grassatlas.{module}"]
            layer = module.split(".")[0]
            for fname in names:
                original = getattr(source, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapped)
        for module, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"grassatlas.{module}"], cls_name)
            self._set(cls, meth, self.wrap(span_name, vars(cls)[meth]))
        for fname in LINALG:
            original = getattr(np.linalg, fname)
            name_of = None
            if fname == "norm":
                def name_of(args, kwargs):
                    return LINALG_PREFIX + ("norm2" if _is_norm2(args, kwargs) else "norm")
            self._set(np.linalg, fname, self.wrap(LINALG_PREFIX + fname, original,
                                                  name_of, _LINALG_GFLOP[fname]))

        original_registry = checks.registry
        wrapped_defs = tuple(dataclasses.replace(d, fn=self.wrap(f"verify.check.{d.name}", d.fn))
                             for d in original_registry())
        self._set(checks, "registry", lambda: wrapped_defs)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, ok calls, inclusive and self seconds, durations, gflop."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ok": 0, "total_s": 0.0,
                                                    "self_s": 0.0, "durations": [],
                                                    "gflop": 0.0})
        for idx, rec in enumerate(self.spans):
            entry = out[self.names[rec[NAME]]]
            dur = rec[END] - rec[START]
            entry["calls"] += 1
            entry["ok"] += rec[OK]
            entry["total_s"] += dur
            entry["self_s"] += dur - child[idx]
            entry["durations"].append(dur)
            entry["gflop"] += rec[GFLOP]
        return out

    def child_calls(self, parent: str, child: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        pid, cid = self._ids.get(parent), self._ids.get(child)
        return sum(1 for rec in self.spans
                   if rec[NAME] == cid and rec[PARENT] >= 0
                   and self.spans[rec[PARENT]][NAME] == pid)

    def returned_with_child(self, parent: str, child: str) -> int:
        """Number of ``parent`` spans that returned normally and had a ``child`` span."""
        pid, cid = self._ids.get(parent), self._ids.get(child)
        with_child = {rec[PARENT] for rec in self.spans if rec[NAME] == cid}
        return sum(1 for idx in with_child
                   if idx >= 0 and self.spans[idx][NAME] == pid and self.spans[idx][OK])

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text: name, start, end, parent, op, ok, gflop."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tok\tgflop\n")
            for rec in self.spans:
                fh.write(f"{self.names[rec[NAME]]}\t{rec[START]:.9f}\t{rec[END]:.9f}\t"
                         f"{rec[PARENT]}\t{rec[OP]}\t{int(rec[OK])}\t{rec[GFLOP]:.6g}\n")


# -- per-layer metrics --------------------------------------------------------

TIMED = ("calls", "self_s", "ms_p50")
COUNTED = ("calls", "self_s")
UNITS = {"calls": "count", "self_s": "s", "ms_p50": "ms", "gflop": "GFLOP",
         "accept_ratio": "ratio"}

# (span name, fields) in output order; "operators.linalg" aggregates every
# numpy.linalg span, accept ratios are derived from parent/child span counts.
LAYER_FIELDS = (
    *((f"operators.linalg.{fn}", ("calls",)) for fn in ("svd", "solve", "qr", "norm2")),
    ("operators.linalg", ("self_s", "gflop")),
    *((f"operators.{fn}", COUNTED)
      for fn in ("oblique_projections", "schatten_norm", "haar_frame")),
    ("operators.split_conditioning", ("calls",)),
    ("atlas.ChartId", TIMED),
    ("atlas.Subspace.complement", COUNTED),
    *((f"atlas.{fn}", TIMED)
      for fn in ("chart_forward", "chart_inverse", "transition_base", "in_chart_domain")),
    ("atlas.Subspace.distance_to", COUNTED),
    *((f"bundles.{fn}", TIMED)
      for fn in ("transition_tangent", "transition_cotangent", "pushforward_factors",
                 "trace_pairing", "pushforward_tensor")),
    *((f"restricted.{fn}", COUNTED)
      for fn in ("build_truncation_ladder", "membership_report", "preservation_experiment")),
    *((f"sampling.{fn}", (*COUNTED, "accept_ratio"))
      for fn in ("random_chart", "random_chart_containing")),
    ("serialize.canonical_json", COUNTED),
    ("verify.run_suite", ("self_s",)),
)

# Spans each workload must exercise: a zero call count fails the traced run.
_LINALG = tuple(f"operators.linalg.{fn}" for fn in ("svd", "solve", "qr", "norm2"))
_CHARTS = ("operators.oblique_projections", "atlas.ChartId", "atlas.Subspace.complement")
EXPECTED = {
    "verify_suite": (*_LINALG, *_CHARTS, "operators.schatten_norm", "operators.haar_frame",
                     "operators.split_conditioning", "atlas.chart_forward",
                     "atlas.chart_inverse", "atlas.transition_base", "atlas.in_chart_domain",
                     "atlas.Subspace.distance_to", "bundles.transition_tangent",
                     "bundles.transition_cotangent", "bundles.pushforward_factors",
                     "bundles.trace_pairing", "bundles.pushforward_tensor",
                     "restricted.build_truncation_ladder", "restricted.membership_report",
                     "sampling.random_chart", "sampling.random_chart_containing",
                     "serialize.canonical_json", "verify.run_suite", "verify.check.*"),
    "transport_n256": (*_LINALG, *_CHARTS, "operators.haar_frame", "atlas.chart_forward",
                       "atlas.chart_inverse", "atlas.transition_base",
                       "atlas.in_chart_domain", "atlas.Subspace.distance_to",
                       "bundles.transition_tangent", "bundles.transition_cotangent",
                       "bundles.pushforward_factors", "bundles.trace_pairing",
                       "bundles.pushforward_tensor"),
    "ladder_preservation": (*_LINALG, *_CHARTS, "operators.schatten_norm",
                            "atlas.chart_forward", "bundles.transition_cotangent",
                            "restricted.build_truncation_ladder",
                            "restricted.membership_report",
                            "restricted.preservation_experiment"),
}


def per_layer_spec(check_names) -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in output order."""
    spec = [(f"{layer}.{field}", UNITS[field]) for layer, fields in LAYER_FIELDS
            for field in fields]
    spec += [(f"verify.check.{name}.s", "s") for name in check_names]
    spec.append(("trace.overhead_frac", "frac"))
    return spec


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, check_names, overhead_frac: float) -> dict[str, float]:
    """Values of :func:`per_layer_spec` from the recorded spans."""
    summary = tracer.summary()
    linalg = [e for name, e in summary.items() if name.startswith(LINALG_PREFIX)]
    summary["operators.linalg"] = {"self_s": sum(e["self_s"] for e in linalg),
                                   "gflop": sum(e["gflop"] for e in linalg)}
    empty = {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    ratios = {
        "sampling.random_chart": (
            tracer.returned_with_child("sampling.random_chart", "operators.split_conditioning"),
            tracer.child_calls("sampling.random_chart", "operators.split_conditioning")),
        "sampling.random_chart_containing": (
            summary.get("sampling.random_chart_containing", empty)["ok"],
            tracer.child_calls("sampling.random_chart_containing", "sampling.random_chart")),
    }
    values: dict[str, float] = {}
    for layer, fields in LAYER_FIELDS:
        entry = summary.get(layer, empty)
        for field in fields:
            if field == "ms_p50":
                durations = entry["durations"]
                value = statistics.median(durations) * 1e3 if durations else 0.0
            elif field == "accept_ratio":
                value = _ratio(*ratios[layer])
            else:
                value = entry[field]
            values[f"{layer}.{field}"] = value
    for name in check_names:
        values[f"verify.check.{name}.s"] = summary.get(f"verify.check.{name}", empty)["total_s"]
    values["trace.overhead_frac"] = overhead_frac
    return values


def missing_layers(tracer: Tracer, workload: str, check_names) -> list[str]:
    """Spans predicted to run on ``workload`` that recorded no call."""
    summary = tracer.summary()
    expected = [name for name in EXPECTED[workload] if name != "verify.check.*"]
    if "verify.check.*" in EXPECTED[workload]:
        expected += [f"verify.check.{name}" for name in check_names]
    return [name for name in expected if name not in summary]
