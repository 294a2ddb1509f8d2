"""Shared test helper: the analysis pipeline reports every rule
family's findings in one run, and a per-rule fixture test looks at one
family."""

from repro.analysis import analyze_modules


def family_findings(prefix: str, sources: dict) -> list:
    """Findings whose rule ID starts with *prefix* (``"LIN"``, ``"TNT"``,
    ``"CON"`` or ``"LIF"``) from one pipeline run over ``{path: source}``."""
    return [finding for finding in analyze_modules(sources).findings
            if finding.rule_id.startswith(prefix)]
