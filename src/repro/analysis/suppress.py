"""Per-line and per-file suppression comments.

``# athena-lint: disable=ATH003`` silences matching findings on its physical
line (comma-separate several ids, or use ``all``).
``# athena-lint: disable-file=ATH003`` silences them for the whole file.
Suppressions are for reviewed, justified exceptions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

_DIRECTIVE = re.compile(
    r"#\s*athena-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)"
)


@dataclass
class Suppressions:
    """Parsed suppression directives for one file."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_wide: Set[str] = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True if ``rule_id`` is silenced at ``line``."""
        for ids in (self.file_wide, self.by_line.get(line, ())):
            if "all" in ids or rule_id in ids:
                return True
        return False


def _parse_ids(raw: str) -> FrozenSet[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression directives from a file's comments."""
    sup = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(tok.string)
            if not match:
                continue
            ids = _parse_ids(match.group("ids"))
            if match.group("scope") == "disable-file":
                sup.file_wide |= ids
            else:
                sup.by_line.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        pass  # partial tokenization still yielded the comments we saw
    return sup
