"""SARIF 2.1.0 output for CI code-scanning annotations.

GitHub's code-scanning upload action consumes this format directly, turning
athena-lint findings into inline PR annotations.  Only the subset of SARIF
that code scanning reads is emitted: one run, the rule catalogue, and one
result per finding with a physical location.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .findings import Finding
from .registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_log(results: List[Finding]) -> Dict[str, object]:
    """Build the SARIF log object for a list of findings."""
    rules = []
    for rule in all_rules():
        descriptor: Dict[str, object] = {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        }
        if rule.hint:
            descriptor["help"] = {"text": rule.hint}
        rules.append(descriptor)
    sarif_results = []
    for finding in results:
        sarif_results.append(
            {
                "ruleId": finding.rule_id,
                "level": "error",
                "message": {
                    "text": finding.message
                    + (f" (fix: {finding.hint})" if finding.hint else "")
                },
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "athena-lint",
                        "informationUri": "https://github.com/athena-repro",
                        "rules": rules,
                    }
                },
                "results": sarif_results,
            }
        ],
    }


def render_sarif(results: List[Finding]) -> str:
    """The SARIF log as an indented JSON string."""
    return json.dumps(sarif_log(results), indent=2)
