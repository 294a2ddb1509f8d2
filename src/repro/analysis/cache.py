"""Content-hash-keyed persistence for the analysis pipeline.

Two cache levels, one JSON file:

* **module level** — the extracted IR and the LIN1xx findings of every
  module, keyed by the SHA-256 of its source bytes.  An edited file
  misses; everything else skips ``ast`` parsing, IR lowering and
  linting on the next run.
* **run level** — the full findings list, keyed by a digest over the
  sorted ``(path, hash)`` set plus the version key.  A completely
  unchanged tree returns memoized findings without running any engine
  at all — this is what makes the warm CI/pre-commit path near-free.

The file is an implementation detail (gitignored); deleting it only
costs one cold run.  The version key is the callgraph ``IR_VERSION``,
the linter's ``LINT_VERSION`` and the ``SPEC_VERSION`` of every
engine's spec, so a bump to any of them discards the whole file at
load time.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.analysis import astlint, callgraph, concspec, lifespec, taintspec
from repro.analysis.findings import AnalysisResult, Finding

CACHE_FORMAT = 2
DEFAULT_CACHE_PATH = ".analysis-cache.json"
_MAX_RUNS = 8  # keep the file bounded across branch switches


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def version_key() -> list:
    """What a cached IR or findings list was computed under."""
    return [
        callgraph.IR_VERSION,
        astlint.LINT_VERSION,
        taintspec.SPEC_VERSION,
        concspec.SPEC_VERSION,
        lifespec.SPEC_VERSION,
    ]


class AnalysisCache:
    """One on-disk cache instance (load once, save once)."""

    def __init__(self, path: str | None = None):
        self.path = path or DEFAULT_CACHE_PATH
        self.hits = 0
        self.misses = 0
        self.run_hit = False
        self._modules: dict[str, dict] = {}
        self._runs: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if (
            payload.get("format") != CACHE_FORMAT
            or payload.get("versions") != version_key()
        ):
            return
        self._modules = payload.get("modules", {})
        self._runs = payload.get("runs", {})

    def save(self) -> None:
        by_age = sorted(
            self._runs.items(), key=lambda kv: kv[1].get("stamp", 0)
        )
        payload = {
            "format": CACHE_FORMAT,
            "versions": version_key(),
            "modules": self._modules,
            "runs": dict(by_age[-_MAX_RUNS:]),
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, self.path)

    # -- module level ---------------------------------------------------------

    def module(self, path: str, digest: str) -> tuple | None:
        """``(IR or None, LIN findings)`` stored for this exact source."""
        entry = self._modules.get(path)
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            return entry["info"], [Finding.from_dict(f) for f in entry["lint"]]
        self.misses += 1
        return None

    def store_module(self, path: str, digest: str, module: tuple) -> None:
        info, lint = module
        self._modules[path] = {
            "hash": digest,
            "info": info,
            "lint": [f.to_dict() for f in lint],
        }

    # -- run level ------------------------------------------------------------

    def _run_key(self, entries) -> str:
        files = sorted((path, digest) for path, digest, _ in entries)
        return content_hash(json.dumps([version_key(), files]).encode())

    def run_result(self, entries) -> AnalysisResult | None:
        entry = self._runs.get(self._run_key(entries))
        if entry is None:
            return None
        self.run_hit = True
        self.hits += len(entries)
        result = AnalysisResult()
        result.scanned = entry["scanned"]
        result.findings = [Finding.from_dict(f) for f in entry["findings"]]
        return result

    def store_run(self, entries, result: AnalysisResult) -> None:
        stamps = [run.get("stamp", 0) for run in self._runs.values()]
        self._runs[self._run_key(entries)] = {
            "scanned": result.scanned,
            "stamp": max(stamps, default=0) + 1,
            "findings": [f.to_dict() for f in result.findings],
        }
