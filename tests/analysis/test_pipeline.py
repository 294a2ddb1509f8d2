"""The one analysis pipeline: every rule family's findings from one
parse per module and one cache, and the clean-repo gate that keeps
``repro.tools analyze src`` green."""

import ast
import json
import os

from repro.analysis import AnalysisCache, Baseline, analyze_paths, pipeline

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BASELINE = os.path.join(REPO_ROOT, "analyze-baseline.json")

SEEDED = {
    "relay.py": (
        "from repro.xmlcore.parser import parse_element\n"
        "def handle(client, interp):\n"
        "    interp.run(parse_element(client.fetch('x')))\n"
    ),
    "blocker.py": (
        "import time\n"
        "async def serve(request):\n"
        "    time.sleep(1.0)\n"
        "    return request\n"
    ),
    "spawner.py": (
        "import asyncio\n"
        "async def spawn(work):\n"
        "    asyncio.create_task(work())\n"
    ),
    "aesuser.py": "from repro.primitives import aes\n",
}


def test_one_run_reports_every_engine_and_memoizes(tmp_path):
    tree = tmp_path / "untrusted"
    tree.mkdir()
    for name, source in SEEDED.items():
        (tree / name).write_text(source)
    cache_path = str(tmp_path / "cache.json")

    cold_cache = AnalysisCache(cache_path)
    cold = analyze_paths([str(tree)], cache=cold_cache)
    assert sorted(f.rule_id for f in cold.findings) == \
        ["CON304", "LIF401", "LIN105", "TNT201"]
    assert not cold_cache.run_hit and cold_cache.misses == 4

    warm_cache = AnalysisCache(cache_path)
    warm = analyze_paths([str(tree)], cache=warm_cache)
    assert warm_cache.run_hit
    assert warm.findings == cold.findings


def test_parse_and_lint_once_per_module_and_only_on_a_miss(
        tmp_path, monkeypatch):
    tree = tmp_path / "untrusted"
    tree.mkdir()
    for name, source in SEEDED.items():
        (tree / name).write_text(source)
    cache_path = str(tmp_path / "cache.json")
    parsed, linted = [], []
    real_parse, real_lint = ast.parse, pipeline.lint_module

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(os.path.basename(filename))
        return real_parse(source, filename, *args, **kwargs)

    def counting_lint(module_tree, path):
        linted.append(os.path.basename(path))
        return real_lint(module_tree, path)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(pipeline, "lint_module", counting_lint)

    cold = analyze_paths([str(tree)], cache=AnalysisCache(cache_path))
    assert sorted(parsed) == sorted(linted) == sorted(SEEDED)

    # A new run over an edited tree misses the run memo; only the edited
    # module is parsed and linted again, the others come from the cache.
    parsed.clear()
    linted.clear()
    (tree / "aesuser.py").write_text("from repro.primitives import des\n")
    cache = AnalysisCache(cache_path)
    edited = analyze_paths([str(tree)], cache=cache)
    assert parsed == linted == ["aesuser.py"]
    assert cache.hits == 3 and cache.misses == 1
    assert [f.message for f in edited.findings if f.rule_id == "LIN105"] \
        == ["imports raw primitive repro.primitives.des; route through "
            "primitives.provider"]
    assert sorted(f.fingerprint for f in edited.findings
                  if f.rule_id != "LIN105") == \
        sorted(f.fingerprint for f in cold.findings if f.rule_id != "LIN105")


def test_unreadable_modules_are_findings_and_the_rest_is_analyzed(tmp_path):
    tree = tmp_path / "untrusted"
    tree.mkdir()
    (tree / "relay.py").write_text(SEEDED["relay.py"])
    (tree / "broken.py").write_text("def broken(:\n    pass\n")
    (tree / "latin1.py").write_bytes(b"NAME = '\xe9t\xe9'\n")

    for cache in (None, AnalysisCache(str(tmp_path / "cache.json"))):
        result = analyze_paths([str(tree)], cache=cache)
        by_location = {
            os.path.basename(f.location): f for f in result.findings
        }
        assert result.scanned == 3
        assert sorted(f.rule_id for f in result.findings) == \
            ["LIN100", "LIN100", "TNT201"]
        assert by_location["broken.py"].rule_id == "LIN100"
        assert by_location["broken.py"].line == 1
        assert "does not parse" in by_location["broken.py"].message
        assert by_location["latin1.py"].rule_id == "LIN100"
        assert "utf-8" in by_location["latin1.py"].message
        assert by_location["relay.py"].rule_id == "TNT201"


# -- clean-repo gate --------------------------------------------------------


def test_repo_analyzes_clean_modulo_baseline():
    """`repro.tools analyze src` on this repo: nothing above baseline."""
    result = analyze_paths([os.path.join(REPO_ROOT, "src")])
    kept = Baseline.load(BASELINE).apply(result)
    assert kept.findings == [], [f.render() for f in kept.findings]
    assert kept.scanned > 100


def test_analyze_baseline_is_wellformed_and_justified():
    with open(BASELINE, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == 1
    for entry in payload["findings"]:
        assert entry["fingerprint"]
        assert entry["justification"]
