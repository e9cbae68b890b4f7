"""``repro.lint`` — AST-based invariant checker for this repository.

The contracts this reproduction stands on — same seed ⇒ byte-identical
counts on every backend, seeded host RNG only, paired
acquisition/release in the lab store — cannot be exhaustively enforced
by tests: one stray ``np.random.default_rng()`` in a kernel or one
unprotected ``os.close`` breaks them silently.  This package makes them
machine-checked on every commit.

Entry points
------------
* CLI: ``repro lint [--project] [--rule ID] [--json|--format github]
  [paths]`` (exit 0 clean, 1 findings, 2 bad invocation);
  ``--project`` additionally builds the whole-program model
  (:mod:`repro.lint.project`) and runs the cross-module rules
  (seed-flow, async-blocking, lock-discipline);
* Python: :func:`lint_paths` / :func:`lint_source` returning
  :class:`LintReport` / :class:`Finding` lists;
* suppression: ``# repro-lint: disable=rule-id -- reason`` on the
  offending line (stale or unknown suppressions are themselves
  findings).

Rule catalog and pragma grammar: ``docs/LINT_RULES.md``.  The live
``src/`` tree is asserted violation-free by ``tests/lint/`` in tier 1,
and CI runs the checker with a JSON artifact on every push.
"""

from __future__ import annotations

from . import rules  # noqa: F401  — registers the rule catalog on import
from .framework import (
    Finding,
    LintConfig,
    ModuleContext,
    ProjectRule,
    Rule,
    register_rule,
    registered_rules,
)
from .pragmas import Pragma, scan_pragmas
from .project import ParsedModule, ProjectModel, build_project
from .runner import JSON_VERSION, LintReport, lint_paths, lint_source


def default_rule_ids() -> list[str]:
    """Every registered rule id, sorted — the enabled-by-default set."""
    return sorted(registered_rules())


def rule_catalog() -> list[tuple[str, str]]:
    """``(id, summary)`` pairs for ``--list-rules`` and the docs."""
    return [
        (rule_id, cls.summary)
        for rule_id, cls in sorted(registered_rules().items())
    ]


__all__ = [
    "Finding",
    "JSON_VERSION",
    "LintConfig",
    "LintReport",
    "ModuleContext",
    "ParsedModule",
    "Pragma",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "build_project",
    "default_rule_ids",
    "lint_paths",
    "lint_source",
    "register_rule",
    "registered_rules",
    "rule_catalog",
    "scan_pragmas",
]
