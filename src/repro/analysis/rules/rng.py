"""ATH002 — no global RNG draws outside the substream registry.

Every source of randomness must draw from an injected
``numpy.random.Generator`` obtained via ``RngStreams.stream(name)``
(:mod:`repro.sim.random`).  Module-level ``random.*`` or ``np.random.*``
calls share hidden global state, so any new call site (or a reordering of
existing ones) perturbs every other component's draws and changes Fig 3/5/9
event orderings.  Only ``sim/random.py`` itself may seed generators.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..common import LintContext, dotted_name
from ..findings import Finding
from ..registry import Rule, register


def _is_global_rng(target: str) -> bool:
    if target.startswith("random."):
        return True
    # `numpy.random.Generator` in annotations is an Attribute, not a Call,
    # so it never reaches here; any *call* into numpy.random is a draw from
    # (or a re-seed of) process-global or ad-hoc-seeded state.
    if target.startswith("numpy.random.") or target.startswith("np.random."):
        return True
    return False


@register
class GlobalRngRule(Rule):
    """Ban ``random.*`` / ``np.random.*`` calls outside ``sim/random.py``."""

    id = "ATH002"
    name = "global-rng-ban"
    summary = "global RNG state couples all components' random draws"
    hint = "take an injected numpy.random.Generator (RngStreams.stream(name))"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.exempt(self.id):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = dotted_name(node.func, ctx.imports)
            if target and _is_global_rng(target):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"global RNG call `{target}(...)` outside sim/random.py",
                )
