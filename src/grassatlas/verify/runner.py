"""Suite configuration, execution, and deterministic report emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, GrassAtlasError
from ..sampling import derive_rng
from ..serialize import canonical_json
from . import checks as _checks

SUITES = ("atlas", "bundles", "restricted", "all")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    dims: tuple[int, ...] = (4, 8, 16)
    trials: int = 100
    seed: int = 42
    tolerances: dict = field(default_factory=dict)
    ladder: tuple[int, ...] = (16, 32, 64, 128)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "ladder", tuple(int(d) for d in self.ladder))
        object.__setattr__(self, "tolerances", dict(self.tolerances))
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
            if not tol > 0:
                raise ConfigError(f"tolerance for {name!r} must be positive")


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_abs_error: float
    tolerance: float
    passed: bool
    worst_seed: str | None = None
    raised: str | None = None

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
    raises ends the check with error +inf at that trial.
    """
    exact = check.tolerance == 0.0
    error, worst = 0.0, None
    for trial in range(trials):
        tag = f"{cfg.seed}.{index}.{trial}"
        rng = derive_rng(cfg.seed, index, trial)
        try:
            outcome = check.fn(cfg, trial, rng, cfg.dims[trial % len(cfg.dims)])
        except (GrassAtlasError, np.linalg.LinAlgError) as exc:
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
        results.append(CheckResult(check.name, trials, error, tolerance,
                                   error <= tolerance, worst, raised))
    return results


def emit_report(cfg: SuiteConfig, results: list[CheckResult],
                format: str = "json") -> str:
    """Render results; JSON output is byte deterministic for equal configs."""
    if format == "json":
        payload = {"suite": cfg.suite, "seed": cfg.seed, "dims": list(cfg.dims),
                   "checks": [r.to_dict() for r in results]}
        return canonical_json(payload)
    if format == "text":
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
    raise ConfigError(f"unknown report format {format!r}")
