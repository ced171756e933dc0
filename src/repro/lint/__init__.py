"""`repro.lint` — the pluggable repo-specific AST lint (rules I1-I5).

Run it as ``python -m repro lint``.  See :mod:`repro.lint.core` for the framework and
:mod:`repro.lint.rules` for the invariants themselves.
"""

from repro.lint.core import (
    LintReport,
    Rule,
    Violation,
    all_rules,
    register,
    render_text,
    repo_root,
    report_to_json,
    run_lint,
)

__all__ = [
    "LintReport",
    "Rule",
    "Violation",
    "all_rules",
    "register",
    "render_text",
    "repo_root",
    "report_to_json",
    "run_lint",
]
