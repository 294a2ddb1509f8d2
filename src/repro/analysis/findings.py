"""The findings model shared by every analysis frontend.

A finding is one rule violation at one location.  Findings are plain
data: the engine produces them, reporters render them, and the
baseline layer suppresses known ones by *fingerprint* — a stable
identity that deliberately ignores line numbers, so unrelated edits
above a known finding do not resurrect it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import IntEnum


def display_path(path: str) -> str:
    """Normalize a scan target for findings and fingerprints.

    Paths inside the working directory are reported relative to it, so
    the same file yields the same fingerprint whether the scan was
    invoked with an absolute or a relative path (baselines depend on
    this).  Paths outside stay as given.
    """
    rel = os.path.relpath(path)
    return path if rel.startswith("..") else rel


class Severity(IntEnum):
    """Ordered severity levels; gating compares against a threshold."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; "
                f"expected one of {[s.name.lower() for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule_id: stable rule identifier (``SEC001``, ``LIN101``, ...).
        severity: the rule's severity.
        location: where it was found — ``path``, ``path:line`` or an
            artifact-internal locator such as ``cluster.xml#sub-1``.
        message: one-line human description.
        line: source line for code findings (0 when not applicable).
        detail: optional multi-line elaboration.
    """

    rule_id: str
    severity: Severity
    location: str
    message: str
    line: int = 0
    detail: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used for baseline suppression."""
        return f"{self.rule_id}|{self.location}|{self.message}"

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.name,
            "location": self.location,
            "line": self.line,
            "message": self.message,
            "detail": self.detail,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (the fingerprint is derived)."""
        fields = ("rule_id", "location", "message", "line", "detail")
        return cls(severity=Severity[data["severity"]],
                   **{name: data[name] for name in fields})

    def render(self) -> str:
        where = self.location
        if self.line:
            where = f"{where}:{self.line}"
        return f"{self.rule_id} [{self.severity.name.lower()}] {where}: " \
               f"{self.message}"


@dataclass
class AnalysisResult:
    """Everything one analysis run produced.

    ``findings`` is the post-baseline list the exit code is computed
    from; ``suppressed`` records what the baseline swallowed so reports
    can show the delta.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    coverage: list[dict] = field(default_factory=list)
    scanned: int = 0

    def worst(self) -> Severity | None:
        return max((f.severity for f in self.findings), default=None)

    def exceeds(self, threshold: Severity) -> bool:
        """True when any finding is at or above *threshold*."""
        worst = self.worst()
        return worst is not None and worst >= threshold

    def by_rule(self) -> dict[str, list[Finding]]:
        grouped: dict[str, list[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule_id, []).append(finding)
        return grouped
