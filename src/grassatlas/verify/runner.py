"""Suite configuration, execution, and deterministic report emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from ..errors import ConfigError, GrassAtlasError
from ..operators import _require_int
from ..sampling import derive_rng
from ..serialize import canonical_json
from . import checks as _checks

SUITES = ("atlas", "bundles", "restricted", "all")
FORMATS = ("json", "text")


def _config_int(value, name: str) -> int:
    try:
        return _require_int(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    dims: tuple[int, ...] = (4, 8, 16)
    trials: int = 100
    seed: int = 42
    tolerances: dict = field(default_factory=dict)
    ladder: tuple[int, ...] = (16, 32, 64, 128)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(_config_int(d, "dims entry") for d in self.dims))
        object.__setattr__(self, "ladder",
                           tuple(_config_int(d, "ladder entry") for d in self.ladder))
        object.__setattr__(self, "trials", _config_int(self.trials, "trials"))
        object.__setattr__(self, "seed", _config_int(self.seed, "seed"))
        try:
            object.__setattr__(self, "tolerances", dict(self.tolerances))
        except (TypeError, ValueError):
            raise ConfigError(f"tolerances must map check names to bounds, got "
                              f"{self.tolerances!r}") from None
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose one of {SUITES}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not self.dims or any(d < 2 for d in self.dims):
            raise ConfigError("every ambient dimension must be at least 2")
        if (len(self.ladder) < 2 or self.ladder[0] < 1
                or any(b <= a for a, b in zip(self.ladder, self.ladder[1:]))):
            raise ConfigError("ladder dims must be >= 1 and strictly increasing with >= 2 rungs")
        known = {d.name for d in _checks.registry()}
        for name, tol in self.tolerances.items():
            if name not in known:
                raise ConfigError(f"tolerance override for unknown check {name!r}")
            # an infinite bound would pass every trial, a raising one included; True
            # is a Real to Python, but not a bound
            if (not isinstance(tol, Real) or isinstance(tol, bool)
                    or not (tol > 0 and math.isfinite(tol))):
                raise ConfigError(f"tolerance for {name!r} must be a positive finite number, "
                                  f"got {tol!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_abs_error: float
    tolerance: float
    worst_seed: str | None
    raised: str | None

    @property
    def passed(self) -> bool:
        return self.max_abs_error <= self.tolerance

    def to_dict(self) -> dict:
        entry = {"name": self.name, "trials": self.trials,
                 "max_abs_error": self.max_abs_error, "tolerance": self.tolerance,
                 "pass": self.passed, "worst_seed": self.worst_seed}
        if self.raised is not None:
            entry["raised"] = self.raised
        return entry


def _run_trials(cfg: SuiteConfig, index: int, check: _checks.CheckDef,
                trials: int) -> tuple[float, str | None, str | None]:
    """Worst error, its seed tag and any raised exception over a check's trials.

    An error check keeps the first trial that reaches the maximum, counting a
    NaN error as +inf.  An exact check (registry tolerance zero) counts the
    trials that violated the invariant and keeps the last one.  A trial that
    raises a ``GrassAtlasError``, a ``ValueError`` (numpy's ``LinAlgError`` and
    its refusal of an array too big to address among them) or a ``MemoryError``
    ends the check with error +inf at that trial, so a dimension too large to
    allocate fails its checks and not the run.
    """
    exact = check.tolerance == 0.0
    error, worst = 0.0, None
    for trial in range(trials):
        tag = f"{cfg.seed}.{index}.{trial}"
        rng = derive_rng(cfg.seed, index, trial)
        try:
            outcome = check.fn(cfg, trial, rng, cfg.dims[trial % len(cfg.dims)])
        except (GrassAtlasError, ValueError, MemoryError) as exc:
            return math.inf, tag, f"{type(exc).__name__}: {exc}"
        if exact:
            if outcome:
                error, worst = error + 1.0, tag
            continue
        value = float(outcome)
        if math.isnan(value):
            value = math.inf
        if value > error:
            error, worst = value, tag
    return error, worst, None


def run_suite(cfg: SuiteConfig) -> list[CheckResult]:
    """Run every registered check of the configured suite, in registry order."""
    results = []
    for index, check in enumerate(_checks.registry()):
        if cfg.suite != "all" and check.suite != cfg.suite:
            continue
        trials = check.pinned_trials if check.pinned_trials else cfg.trials
        error, worst, raised = _run_trials(cfg, index, check, trials)
        tolerance = float(cfg.tolerances.get(check.name, check.tolerance))
        results.append(CheckResult(check.name, trials, error, tolerance, worst, raised))
    return results


def require_format(format: str) -> None:
    """Raise :class:`ConfigError` unless ``format`` is one of :data:`FORMATS`."""
    if format not in FORMATS:
        raise ConfigError(f"unknown report format {format!r}; choose one of {FORMATS}")


def emit_report(cfg: SuiteConfig, results: list[CheckResult],
                format: str = "json") -> str:
    """Render results; JSON output is byte deterministic for equal configs."""
    require_format(format)
    if format == "json":
        payload = {"suite": cfg.suite, "seed": cfg.seed, "dims": list(cfg.dims),
                   "checks": [r.to_dict() for r in results]}
        return canonical_json(payload)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{status} {r.name}: max_abs_error={r.max_abs_error:.6e} "
                f"tolerance={r.tolerance:.1e} trials={r.trials}")
        if r.raised is not None:
            line += f" raised={r.raised} at {r.worst_seed}"
        lines.append(line)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
