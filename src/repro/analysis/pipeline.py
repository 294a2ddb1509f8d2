"""One analysis pipeline for every codebase rule family.

Each module is parsed once; the LIN1xx rules run on that ``ast`` tree,
and its call-graph IR joins one
:class:`~repro.analysis.callgraph.Program` for the engines::

    sources --[parse once per module, cached by content hash]--> ast
        ast --> lint_module (LIN1xx)
        ast --> IR --> Program --> TaintEngine (TNT2xx)
                               --> ConcurrencyEngine (CON3xx)
                               --> LifecycleEngine (LIF4xx)

The engines only read the program, so sharing it cannot change what
any one of them reports.  With a cache (:mod:`repro.analysis.cache`),
unchanged modules skip parsing, lowering and linting, and an unchanged
tree returns the memoized findings without running any engine.
"""

from __future__ import annotations

import ast
import os

from repro.analysis.astlint import LIN100, lint_module
from repro.analysis.cache import content_hash
from repro.analysis.callgraph import Program, extract_module
from repro.analysis.concurrency import ConcurrencyEngine
from repro.analysis.findings import AnalysisResult, display_path
from repro.analysis.lifecycle import LifecycleEngine
from repro.analysis.taint import TaintEngine

ENGINES = (TaintEngine, ConcurrencyEngine, LifecycleEngine)


def iter_py_files(paths):
    """Files as given; directories walked for ``.py`` files, sorted."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def parse_module(source: str | bytes, path: str) -> tuple:
    """``(IR, LIN findings)`` from one parse; a module that does not
    decode or parse is ``(None, [LIN100 finding])``."""
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        finding = LIN100.finding(
            path,
            f"module does not parse: {reason}",
            line=getattr(exc, "lineno", None) or 0,
        )
        return None, [finding]
    return extract_module(tree, path), lint_module(tree, path)


def analyze_modules(sources: dict) -> AnalysisResult:
    """Analyze in-memory ``{path: source}`` modules (tests, fixtures)."""
    modules = [
        parse_module(source, path) for path, source in sorted(sources.items())
    ]
    return _analyze_parsed(modules)


def _analyze_parsed(modules: list) -> AnalysisResult:
    infos = [info for info, _ in modules if info is not None]
    program = Program(infos)
    paths = {info["module"]: info["path"] for info in infos}
    result = AnalysisResult([f for _, lint in modules for f in lint])
    for engine in ENGINES:
        result.findings.extend(engine(program, paths).run())
    result.scanned = len(modules)
    return result


def analyze_paths(paths, *, cache=None) -> AnalysisResult:
    """Analyze files/directories of ``.py`` files, optionally cached.

    *cache* is a :class:`repro.analysis.cache.AnalysisCache`; when
    given, unchanged modules skip parsing, IR lowering and linting, and
    a fully unchanged target set returns the memoized findings without
    re-running any engine.
    """
    entries = []  # (display path, content hash, raw bytes)
    for target in iter_py_files(paths):
        target = display_path(target)
        with open(target, "rb") as handle:
            raw = handle.read()
        entries.append((target, content_hash(raw), raw))

    if cache is not None:
        memoized = cache.run_result(entries)
        if memoized is not None:
            return memoized

    modules = []
    for path, digest, raw in sorted(entries):
        module = cache.module(path, digest) if cache is not None else None
        if module is None:
            module = parse_module(raw, path)
            if cache is not None:
                cache.store_module(path, digest, module)
        modules.append(module)

    result = _analyze_parsed(modules)
    if cache is not None:
        cache.store_run(entries, result)
        cache.save()
    return result
