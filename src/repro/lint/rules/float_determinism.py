"""``float-determinism`` — no axis-reductions where coins compare floats.

PR 6's hard-won lesson: NumPy's ``sum(..., axis=1)`` and a per-row
``sum(row)`` order the additions differently, so the two can disagree
in the last ulp — and the engine's measurement coins compare *exact*
floats (``coins < detection``), so a last-ulp disagreement flips a
trial and breaks seed parity between backends.  The contract is that
probability/state reductions in the compute core are **gathered
per-row 1-D sums** (see ``repro.quantum.grover.marked_probabilities``),
which are bit-identical to the sequential path.

The rule flags float-reduction calls carrying an ``axis`` argument —
``np.sum/arr.sum`` and the mean/prod/nansum family — inside the
configured core paths (``repro/quantum/``, ``repro/core/`` by
default).  Exact-integer packing helpers (``np.packbits``) and shape
ops (``np.stack``) are not reductions and are not flagged.  A
reduction that is genuinely diagnostic-only (never compared against
coins) carries a line pragma with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..framework import Finding, ModuleContext, Rule, register_rule

#: Path fragments inside which the contract applies.
DEFAULT_PATHS: Sequence[str] = ("repro/quantum/", "repro/core/")

#: Reduction callees (attribute name) whose axis form reorders float
#: additions relative to the per-row form.
_REDUCTIONS = {"sum", "nansum", "mean", "nanmean", "prod", "nanprod", "average"}


def _has_axis_argument(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "axis" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return True
    return False


@register_rule
class FloatDeterminismRule(Rule):
    id = "float-determinism"
    summary = (
        "no axis= float reductions in quantum/ and core/ — only "
        "gathered per-row sums are bit-identical across backends"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        paths = module.options.get("paths", DEFAULT_PATHS)
        if not module.in_dirs(paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in _REDUCTIONS:
                continue
            if _has_axis_argument(node):
                yield self.finding(
                    module,
                    node,
                    f"axis-reduction `{func.attr}(..., axis=…)` is not "
                    "bit-identical to the per-row sequential reduction; "
                    "gather rows and reduce each with a 1-D sum (see "
                    "marked_probabilities), or pragma with a reason if "
                    "this value never meets a measurement coin",
                )
