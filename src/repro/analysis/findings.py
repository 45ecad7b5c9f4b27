"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to ``path:line:col``."""

    rule_id: str
    path: str  # posix path relative to the lint root
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        """Human-readable ``path:line:col: RULE message`` form."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form for ``--format json`` / CI annotation."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
