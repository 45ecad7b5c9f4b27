"""Configuration: built-in defaults merged with ``[tool.athena-lint]``.

The defaults encode this repository's layout (lint ``src`` and ``examples``;
``sim/random.py`` may seed generators; ``sim/engine.py`` is the event queue;
benchmarks may read the wall clock).  ``pyproject.toml`` can override any of
it::

    [tool.athena-lint]
    paths = ["src", "examples"]
    exclude = ["src/repro/_vendored"]

    [tool.athena-lint.rules.ATH002]
    exempt = ["sim/random.py"]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

DEFAULT_PATHS = ["src", "examples"]
DEFAULT_RULE_OPTIONS: Dict[str, Dict[str, object]] = {
    "ATH001": {"exempt": ["benchmarks"]},
    "ATH002": {"exempt": ["sim/random.py"]},
    "ATH006": {"exempt": ["sim/engine.py"]},
    # The trace package owns the record lists (sink, JSONL loader), and
    # the streaming analytics package is a sanctioned consumer: its
    # AnalysisTap/replay layer rebuilds result lists from sink deliveries.
    "ATH007": {"exempt": ["repro/trace/*.py", "repro/core/streaming/*.py"]},
}


@dataclass
class LintConfig:
    """Resolved lint configuration for one run."""

    root: Path
    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    exclude: List[str] = field(default_factory=list)
    rule_options: Dict[str, Dict[str, object]] = field(
        default_factory=lambda: {k: dict(v) for k, v in DEFAULT_RULE_OPTIONS.items()}
    )


def _load_toml(path: Path) -> Dict[str, object]:
    if sys.version_info >= (3, 11):
        import tomllib

        with path.open("rb") as fh:
            return tomllib.load(fh)
    try:  # pragma: no cover - py<3.11 fallback path
        import tomli  # type: ignore[import-not-found]

        with path.open("rb") as fh:
            return tomli.load(fh)
    except ModuleNotFoundError:  # pragma: no cover
        return {}


def load_config(root: Path) -> LintConfig:
    """Build the config for ``root``, honouring its pyproject if present."""
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    section = (
        _load_toml(pyproject).get("tool", {}).get("athena-lint", {})  # type: ignore[union-attr]
    )
    if not isinstance(section, dict):
        return config
    if isinstance(section.get("paths"), list):
        config.paths = [str(p) for p in section["paths"]]
    if isinstance(section.get("exclude"), list):
        config.exclude = [str(p) for p in section["exclude"]]
    rules = section.get("rules")
    if isinstance(rules, dict):
        for rule_id, options in rules.items():
            if isinstance(options, dict):
                config.rule_options.setdefault(rule_id, {}).update(options)
    return config
