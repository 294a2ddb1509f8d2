"""Incremental-cache behaviour: module-level hash keys, run-level
memoization, and version invalidation of the one analysis cache."""

import json
import os

import pytest

from repro.analysis import astlint, callgraph, concspec, lifespec, taintspec
from repro.analysis.cache import AnalysisCache, content_hash
from repro.analysis.pipeline import analyze_paths

VIOLATION = """\
from repro.xmlcore.parser import parse_element

def handle(client, interp):
    interp.run(parse_element(client.fetch("x")))
"""

CLEAN = """\
def handle(payload):
    return len(payload)
"""


def write_tree(root, body=VIOLATION):
    pkg = root / "untrusted"
    pkg.mkdir(exist_ok=True)
    target = pkg / "example.py"
    target.write_text(body)
    (pkg / "other.py").write_text(CLEAN)
    return str(pkg), str(target)


def test_cold_then_warm_run_is_memoized(tmp_path):
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")

    cold_cache = AnalysisCache(cache_path)
    cold = analyze_paths([pkg], cache=cold_cache)
    assert {f.rule_id for f in cold.findings} == {"TNT201"}
    assert cold_cache.run_hit is False
    assert os.path.exists(cache_path)

    warm_cache = AnalysisCache(cache_path)
    warm = analyze_paths([pkg], cache=warm_cache)
    assert warm_cache.run_hit is True
    assert [f.fingerprint for f in warm.findings] == \
        [f.fingerprint for f in cold.findings]
    assert warm.scanned == cold.scanned


def test_edited_module_misses_and_reruns(tmp_path):
    pkg, target = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([pkg], cache=AnalysisCache(cache_path))

    with open(target, "w") as handle:
        handle.write(CLEAN)
    cache = AnalysisCache(cache_path)
    result = analyze_paths([pkg], cache=cache)
    assert cache.run_hit is False
    assert cache.hits == 1 and cache.misses == 1  # other.py unchanged
    assert result.findings == []


def test_version_bump_invalidates_cache(tmp_path):
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([pkg], cache=AnalysisCache(cache_path))

    with open(cache_path) as handle:
        payload = json.load(handle)
    payload["versions"] = [-1]
    with open(cache_path, "w") as handle:
        json.dump(payload, handle)

    cache = AnalysisCache(cache_path)
    analyze_paths([pkg], cache=cache)
    assert cache.run_hit is False
    assert cache.misses == 2


def test_corrupt_cache_file_is_ignored(tmp_path):
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    with open(cache_path, "w") as handle:
        handle.write("{not json")
    result = analyze_paths([pkg], cache=AnalysisCache(cache_path))
    assert {f.rule_id for f in result.findings} == {"TNT201"}


def test_run_history_is_bounded(tmp_path):
    pkg, target = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    for index in range(12):
        with open(target, "w") as handle:
            handle.write(CLEAN + f"\nMARKER = {index}\n")
        analyze_paths([pkg], cache=AnalysisCache(cache_path))
    with open(cache_path) as handle:
        payload = json.load(handle)
    assert len(payload["runs"]) <= 8


def test_content_hash_is_stable():
    assert content_hash(b"abc") == content_hash(b"abc")
    assert content_hash(b"abc") != content_hash(b"abd")


@pytest.mark.parametrize("module, name", [
    (callgraph, "IR_VERSION"),
    (astlint, "LINT_VERSION"),
    (taintspec, "SPEC_VERSION"),
    (concspec, "SPEC_VERSION"),
    (lifespec, "SPEC_VERSION"),
], ids=["ir", "lint", "taint-spec", "concurrency-spec", "lifecycle-spec"])
def test_version_bump_cold_starts_the_cache_once(tmp_path, monkeypatch,
                                                 module, name):
    """A bump of the IR, of the lint rules or of any one engine's spec
    discards the stale file at load, and the very next run is warm
    again."""
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([pkg], cache=AnalysisCache(cache_path))

    monkeypatch.setattr(module, name, getattr(module, name) + 1)
    stale = AnalysisCache(cache_path)
    analyze_paths([pkg], cache=stale)
    assert not stale.run_hit
    assert stale.hits == 0 and stale.misses == 2  # full cold start

    fresh = AnalysisCache(cache_path)
    analyze_paths([pkg], cache=fresh)
    assert fresh.run_hit  # cold exactly once
