"""Walk the tree, run every rule, filter, format, exit non-zero on findings.

Exposed three ways — ``athena-repro lint``, ``python -m repro.analysis``, and
:func:`lint_paths` for the pytest gate — all sharing this implementation.

One serial run makes two passes over the collected files:

1. **per-file** rules (ATH001–ATH010) on each file's
   :class:`~repro.analysis.common.LintContext`;
2. **whole-program** rules (ATH100, ATH102) on one :class:`ProjectGraph`
   built from every file.

``--format sarif`` / ``--sarif FILE`` emit GitHub code-scanning annotations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import rules  # noqa: F401  (registers ATH001..ATH010, ATH100..ATH102)
from .common import LintContext, path_matches
from .config import LintConfig, load_config
from .findings import Finding
from .graph import ProjectGraph
from .registry import RULES, all_rules, project_rules
from .sarif import render_sarif
from .suppress import parse_suppressions

# A file that does not parse cannot be checked; surfaced under this id so it
# still fails the gate with a file:line location.
PARSE_ERROR_ID = "ATH000"


def lint_source(
    source: str,
    relpath: str = "<string>",
    rule_ids: Optional[Sequence[str]] = None,
    rule_options: Optional[dict] = None,
) -> List[Finding]:
    """Lint one in-memory source blob with the per-file rules.

    This is the seam the rule unit tests drive with fixture snippets.
    Whole-program rules need cross-file context; use :func:`lint_sources`.
    """
    try:
        ctx = LintContext.from_source(source, relpath, rule_options)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id=PARSE_ERROR_ID,
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    suppressions = parse_suppressions(source)
    selected = [
        rule
        for rule in all_rules()
        if rule.scope == "file" and (rule_ids is None or rule.id in rule_ids)
    ]
    results = [
        finding
        for rule in selected
        for finding in rule.check(ctx)
        if not suppressions.is_suppressed(finding.rule_id, finding.line)
    ]
    results.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return results


def lint_project(
    sources: Dict[str, str],
    rule_ids: Optional[Sequence[str]] = None,
    rule_options: Optional[dict] = None,
) -> List[Finding]:
    """Run the whole-program rules over ``{relpath: source}``."""
    selected = [
        rule
        for rule in project_rules()
        if rule_ids is None or rule.id in rule_ids
    ]
    if not selected:
        return []
    graph = ProjectGraph.from_sources(sources)
    results: List[Finding] = []
    suppression_memo: Dict[str, object] = {}
    for rule in selected:
        rule.configure(rule_options)
        for finding in rule.check_project(graph):
            module = graph.by_relpath.get(finding.path)
            if module is not None:
                if finding.path not in suppression_memo:
                    suppression_memo[finding.path] = parse_suppressions(module.source)
                if suppression_memo[finding.path].is_suppressed(  # type: ignore[attr-defined]
                    finding.rule_id, finding.line
                ):
                    continue
            results.append(finding)
    results.sort(key=_path_order)
    return results


def lint_sources(
    sources: Dict[str, str],
    rule_ids: Optional[Sequence[str]] = None,
    rule_options: Optional[dict] = None,
) -> List[Finding]:
    """Both passes over in-memory sources: each file, then the project."""
    results: List[Finding] = []
    for relpath in sorted(sources):
        results.extend(
            lint_source(sources[relpath], relpath, rule_ids, rule_options)
        )
    results.extend(lint_project(sources, rule_ids, rule_options))
    results.sort(key=_path_order)
    return results


def _path_order(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule_id)


def collect_files(config: LintConfig, paths: Sequence[str]) -> List[Path]:
    """Python files under ``paths`` (relative to the root), excludes applied."""
    files: List[Path] = []
    for entry in paths:
        base = (config.root / entry).resolve()
        if base.is_file() and base.suffix == ".py":
            candidates: Iterable[Path] = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            continue
        for path in candidates:
            rel = path.relative_to(config.root).as_posix()
            if config.exclude and path_matches(rel, config.exclude):
                continue
            files.append(path)
    return files


def lint_paths(
    root: Path,
    paths: Optional[Sequence[str]] = None,
    rule_ids: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
) -> Tuple[List[Finding], int]:
    """Lint a tree; returns ``(findings, files scanned)``."""
    config = config or load_config(root)
    sources = {
        path.relative_to(config.root).as_posix(): path.read_text(encoding="utf-8")
        for path in collect_files(config, paths or config.paths)
    }
    return lint_sources(sources, rule_ids, config.rule_options), len(sources)


def _render_text(results: List[Finding], scanned: int) -> str:
    lines = [finding.render() for finding in results]
    noun = "finding" if len(results) == 1 else "findings"
    lines.append(f"{len(results)} {noun} in {scanned} files scanned")
    return "\n".join(lines)


def _render_json(results: List[Finding], scanned: int) -> str:
    payload = {
        "findings": [finding.to_json() for finding in results],
        "files_scanned": scanned,
        "rules": sorted(RULES),
    }
    return json.dumps(payload, indent=2)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser shared by ``athena-repro lint`` and ``-m`` entry."""
    parser = argparse.ArgumentParser(
        prog="athena-lint",
        description="Static analysis enforcing simulator determinism and "
        "unit-safety invariants (per-file rules ATH001-ATH010, "
        "whole-program rules ATH100, ATH102).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: from "
                             "[tool.athena-lint] paths, else src + examples)")
    parser.add_argument("--root", default=".",
                        help="project root holding pyproject.toml")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the report to FILE (for CI "
                             "annotation; '-' keeps stdout only)")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="additionally write a SARIF 2.1.0 report to "
                             "FILE (GitHub code-scanning format)")
    parser.add_argument("--select", "--rule", dest="select", default=None,
                        metavar="IDS",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            tag = "project" if rule.scope == "project" else "file"
            print(f"{rule.id}  [{tag}] {rule.name}: {rule.summary}")
        return 0
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"athena-lint: root {args.root!r} is not a directory",
              file=sys.stderr)
        return 2
    rule_ids = None
    if args.select:
        rule_ids = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = [rid for rid in rule_ids if rid not in RULES]
        if unknown:
            print(f"athena-lint: unknown rule ids: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    missing = [p for p in args.paths if not (root / p).resolve().exists()]
    if missing:
        print(f"athena-lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    results, scanned = lint_paths(
        root, paths=args.paths or None, rule_ids=rule_ids
    )
    if args.format == "sarif":
        report = render_sarif(results)
    elif args.format == "json":
        report = _render_json(results, scanned)
    else:
        report = _render_text(results, scanned)
    print(report)
    if args.output and args.output != "-":
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(results) + "\n",
                                    encoding="utf-8")
    return 1 if results else 0
