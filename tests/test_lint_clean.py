"""Tier-1 gate: the checked-in tree must pass athena-lint with no findings.

Any PR that introduces a wall-clock call, a global RNG draw, an unsuffixed
time/rate identifier, a float timestamp equality, a mutable default, or a
malformed scheduled callback fails here — with the offending ``file:line``
in the assertion message.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_tree_lints_clean_with_empty_baseline():
    results, scanned = lint_paths(REPO_ROOT)
    report = "\n".join(finding.render() for finding in results)
    assert not results, f"athena-lint found new violations:\n{report}"
    # Sanity: the walk actually covered the source tree and the examples.
    assert scanned > 90, f"suspiciously few files scanned: {scanned}"


def test_analyzer_passes_its_own_rules():
    # The analyzer polices unit suffixes and determinism; it must hold
    # itself to the same standard (including the whole-program rules).
    results, scanned = lint_paths(REPO_ROOT, paths=["src/repro/analysis"])
    report = "\n".join(finding.render() for finding in results)
    assert not results, f"athena-lint does not self-lint clean:\n{report}"
    assert scanned > 15


def test_lint_rules_all_registered():
    from repro.analysis import RULES

    assert sorted(RULES) == [
        "ATH001", "ATH002", "ATH003", "ATH004", "ATH005", "ATH006",
        "ATH007", "ATH008", "ATH009", "ATH010",
        "ATH100", "ATH102",
    ]
