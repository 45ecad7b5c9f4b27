"""Rule base classes and the registry the runner iterates over.

Two rule scopes coexist:

* **file** rules (ATH001–ATH010) see one :class:`LintContext` at a time and
  implement :meth:`Rule.check`;
* **project** rules (ATH100, ATH102) see the whole
  :class:`~repro.analysis.graph.ProjectGraph` and implement
  :meth:`ProjectRule.check_project`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Type

from .common import LintContext, path_matches
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .graph import ProjectGraph

RULES: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class: subclass, set the metadata, implement :meth:`check`."""

    id: str = ""
    name: str = ""
    summary: str = ""
    hint: str = ""
    scope: str = "file"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, line: int, col: int, message: str, hint: str = ""
    ) -> Finding:
        """Construct a finding for this rule at ``line:col``."""
        return Finding(
            rule_id=self.id,
            path=ctx.relpath,
            line=line,
            col=col,
            message=message,
            hint=hint or self.hint,
        )


class ProjectRule(Rule):
    """Whole-program rule: checks the project graph instead of one file."""

    scope = "project"

    def __init__(self) -> None:
        self.options: Dict[str, object] = {}

    def configure(self, rule_options: Optional[Dict[str, Dict[str, object]]]) -> None:
        """Attach this rule's ``[tool.athena-lint.rules.<id>]`` options."""
        self.options = dict((rule_options or {}).get(self.id, {}))

    def exempt(self, relpath: str) -> bool:
        """True if ``relpath`` is exempt from this rule via config."""
        patterns = self.options.get("exempt", [])
        return path_matches(relpath, patterns) if patterns else False  # type: ignore[arg-type]

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Project rules contribute nothing in the per-file pass."""
        return iter(())

    def check_project(self, graph: "ProjectGraph") -> Iterator[Finding]:
        """Yield findings computed over the whole project graph."""
        raise NotImplementedError

    def project_finding(
        self, relpath: str, line: int, col: int, message: str, hint: str = ""
    ) -> Finding:
        """Construct a finding for this rule at ``relpath:line:col``."""
        return Finding(
            rule_id=self.id,
            path=relpath,
            line=line,
            col=col,
            message=message,
            hint=hint or self.hint,
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def get_rule(rule_id: str) -> Rule:
    """Instantiate the rule registered under ``rule_id``."""
    return RULES[rule_id]()


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, ordered by id."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]


def project_rules() -> List[ProjectRule]:
    """Instantiate the whole-program rules, ordered by id."""
    return [rule for rule in all_rules() if rule.scope == "project"]  # type: ignore[misc]
