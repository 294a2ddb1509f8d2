"""One analysis pipeline for the whole-program engines.

Every call-graph analyzer reads the same per-module IR, so the driver
extracts it once, builds one :class:`~repro.analysis.callgraph.Program`
and runs the engines over it in order::

    sources --[extract IR per module, cached by content hash]-->
            Program --> TaintEngine (TNT2xx)
                    --> ConcurrencyEngine (CON3xx)
                    --> LifecycleEngine (LIF4xx) --> findings

The engines only read the program, so sharing it cannot change what
any one of them reports.  With a cache (:mod:`repro.analysis.cache`),
unchanged modules skip extraction and an unchanged tree returns the
memoized findings without running any engine.
"""

from __future__ import annotations

from repro.analysis.astlint import _iter_py_files
from repro.analysis.cache import content_hash
from repro.analysis.callgraph import Program, extract_module
from repro.analysis.concurrency import ConcurrencyEngine
from repro.analysis.findings import AnalysisResult, display_path
from repro.analysis.lifecycle import LifecycleEngine
from repro.analysis.taint import TaintEngine

ENGINES = (TaintEngine, ConcurrencyEngine, LifecycleEngine)


def analyze_modules(sources: dict) -> AnalysisResult:
    """Analyze in-memory ``{path: source}`` modules (tests, fixtures)."""
    infos = [
        extract_module(source, path)
        for path, source in sorted(sources.items())
    ]
    return _analyze_extracted(infos)


def analyze_source(source: str, path: str = "src/repro/example.py") -> list:
    """Single-module convenience mirroring :func:`lint_source`."""
    return analyze_modules({path: source}).findings


def _analyze_extracted(infos: list) -> AnalysisResult:
    program = Program(infos)
    paths = {info["module"]: info["path"] for info in infos}
    result = AnalysisResult()
    for engine in ENGINES:
        result.findings.extend(engine(program, paths).run())
    result.scanned = len(infos)
    return result


def analyze_paths(paths, *, cache=None) -> AnalysisResult:
    """Analyze files/directories of ``.py`` files, optionally cached.

    *cache* is a :class:`repro.analysis.cache.AnalysisCache`; when
    given, unchanged modules skip AST extraction and a fully unchanged
    target set returns the memoized findings without re-running any
    engine.
    """
    entries = []  # (display path, content hash, source)
    for target in _iter_py_files(paths):
        target = display_path(target)
        with open(target, "rb") as handle:
            raw = handle.read()
        entries.append((target, content_hash(raw), raw.decode("utf-8")))

    if cache is not None:
        memoized = cache.run_result(entries)
        if memoized is not None:
            return memoized

    infos = []
    for path, digest, source in sorted(entries):
        info = cache.module_info(path, digest) if cache is not None else None
        if info is None:
            info = extract_module(source, path)
            if cache is not None:
                cache.store_module(path, digest, info)
        infos.append(info)

    result = _analyze_extracted(infos)
    if cache is not None:
        cache.store_run(entries, result)
        cache.save()
    return result
