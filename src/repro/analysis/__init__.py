"""Static security analysis: artifact auditor + codebase analyzers.

Two frontends over one rule engine (stable IDs, severities, baseline
suppression, text/JSON reporters):

* :mod:`repro.analysis.artifact` — audits signed/encrypted disc
  artifacts *without key material*: signature-coverage maps, wrapping
  susceptibility, weak algorithms, sign/encrypt ordering, permission
  claims vs. XACML policy.
* :mod:`repro.analysis.pipeline` — one driver for every codebase
  rule: it parses each module once (IR and findings cached by content
  hash in :mod:`repro.analysis.cache`), lints that tree and lowers it
  to the call-graph IR, then runs the engines over one program:

  - :mod:`repro.analysis.astlint` — per-module repo invariants over
    the Python AST: revision-stamp propagation, no HMAC memoization,
    constant-time comparisons, injected clocks, provider-only
    primitives, guarded parses and typed-errors-only on untrusted
    paths, no torn writes (LIN1xx rules);
  - :mod:`repro.analysis.taint` — untrusted bytes must not reach
    script execution/playback/network unverified, and key material
    must not reach logs, ``repr`` output, exception text or cache keys
    (TNT2xx rules);
  - :mod:`repro.analysis.concurrency` — guarded-by inference for the
    shared security state, check-then-act atomicity, lock discipline
    and the asyncio-readiness gate (CON3xx rules);
  - :mod:`repro.analysis.lifecycle` — orphaned task handles, broad
    excepts swallowing ``CancelledError``, awaits under threading
    locks, deadline-propagation proofs along the async service chain,
    and exception-unsafe resource/slot releases (LIF4xx rules).

CLI: ``python -m repro.tools audit|analyze``.
"""

from repro.analysis.artifact import ArtifactAuditor, audit_paths
from repro.analysis.baseline import Baseline
from repro.analysis.cache import AnalysisCache
from repro.analysis.engine import Rule, all_rules, catalog_lines, get_rule
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.pipeline import analyze_modules, analyze_paths
from repro.analysis.report import render_json, render_text, summary_line

__all__ = [
    "AnalysisCache", "AnalysisResult", "ArtifactAuditor", "Baseline",
    "Finding", "Rule", "Severity", "all_rules", "analyze_modules",
    "analyze_paths", "audit_paths", "catalog_lines", "get_rule",
    "render_json", "render_text", "summary_line",
]
