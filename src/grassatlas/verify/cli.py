"""Command-line entry point: seeded verification suites with report emission."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, GrassAtlasError
from .runner import FORMATS, SUITES, SuiteConfig, emit_report, require_format, run_suite


def _parse_tolerance(item: str) -> tuple[str, float]:
    name, _, value = item.partition("=")
    if not name or not value:
        raise ConfigError(f"tolerance override must look like name=value, got {item!r}")
    try:
        return name.strip(), float(value)
    except ValueError as exc:
        raise ConfigError(f"invalid tolerance value in {item!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def read_config_file(path: Path) -> dict:
    """Key-value config: ``key = value`` lines, ``tol.<check>`` for overrides."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    options: dict = {"tolerances": {}}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        try:
            if key.startswith("tol."):
                options["tolerances"][key[4:]] = float(value)
            elif key in ("dims", "ladder"):
                options[key] = _parse_int_list(value)
            elif key in ("trials", "seed"):
                options[key] = int(value)
            elif key in ("suite", "format", "out"):
                options[key] = value
            else:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value {value!r} for {key!r}") from exc
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run seeded property suites over the chart atlas, the bundle "
                    "calculus, and the restricted-model experiments.")
    parser.add_argument("--suite", choices=SUITES, default=None)
    parser.add_argument("--dim", dest="dims", action="append", type=int, metavar="N",
                        help="ambient dimension (repeatable)")
    parser.add_argument("--trials", type=int, default=None, metavar="T")
    parser.add_argument("--seed", type=int, default=None, metavar="S")
    parser.add_argument("--tol", dest="tols", action="append", default=[],
                        metavar="NAME=VAL", help="per-check tolerance override")
    parser.add_argument("--ladder", type=str, default=None, metavar="16,32,64,128")
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument("--out", type=Path, default=None, metavar="PATH")
    parser.add_argument("--config", type=Path, default=None, metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options: dict = {"tolerances": {}}
        if args.config is not None:
            options.update(read_config_file(args.config))
        # flags win over the config file; --ladder is parsed here, inside the
        # try, so a bad rung exits 2 rather than escaping argparse as a traceback
        parse = {"dims": tuple, "ladder": _parse_int_list}
        for name in ("suite", "dims", "trials", "seed", "ladder", "format", "out"):
            value = getattr(args, name)
            if value is not None:
                options[name] = parse[name](value) if name in parse else value
        for item in args.tols:
            name, value = _parse_tolerance(item)
            options["tolerances"][name] = value

        fmt = options.pop("format", "text")
        out = options.pop("out", None)
        cfg = SuiteConfig(**options)
        # what is known before the suite runs is refused before it, not after
        require_format(fmt)
        if out is not None and Path(out).is_dir():
            raise ConfigError(f"output path {out} is a directory")
        if out is not None and not Path(out).parent.is_dir():
            raise ConfigError(f"output directory {Path(out).parent} does not exist")
        results = run_suite(cfg)
        report = emit_report(cfg, results, format=fmt)
        if out is not None:
            try:
                Path(out).write_text(report + "\n", encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write report to {out}: {exc}") from exc
    except GrassAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if out is None:
        print(report)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
