"""The one analysis pipeline: every engine's findings from one IR
extraction and one cache, and the clean-repo gate that keeps
``repro.tools analyze src`` green."""

import json
import os

from repro.analysis import AnalysisCache, Baseline, analyze_paths

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
        ["CON304", "LIF401", "TNT201"]
    assert not cold_cache.run_hit and cold_cache.misses == 3

    warm_cache = AnalysisCache(cache_path)
    warm = analyze_paths([str(tree)], cache=warm_cache)
    assert warm_cache.run_hit
    assert warm.findings == cold.findings


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
