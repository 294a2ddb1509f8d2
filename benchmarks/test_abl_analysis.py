"""ABL-ANALYSIS — analysis-pipeline throughput, cold vs. content-hash warm.

The pipeline (one parse per module, the LIN1xx rules and one IR
extraction on that tree, then the TNT2xx, CON3xx and LIF4xx engines
over one program) runs as a pre-commit/CI gate over the whole tree, so
two costs matter: the cold run (every module parsed, linted and
extracted, every engine run) and the warm path, where the content-hash
cache must make an unchanged tree near-free.  The regression gate in
``bench_regression.py`` tracks the normalized cold time
(``analysis_cold_norm``) and the warm/cold ratio
(``analysis_warm_ratio``).
"""

import os

from _workloads import measure, report
from repro.analysis import AnalysisCache, analyze_paths

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def test_abl_analysis(tmp_path):
    cache_path = str(tmp_path / "analysis-cache.json")

    def cold():
        if os.path.exists(cache_path):
            os.remove(cache_path)
        return analyze_paths([SRC], cache=AnalysisCache(cache_path))

    result = cold()
    assert result.scanned > 100, "workload lost its modules"
    cold_time = measure(cold, warmup=0, repeat=3)

    cold()  # leave a populated cache behind for the warm series
    warm_hits = []

    def warm():
        cache = AnalysisCache(cache_path)
        out = analyze_paths([SRC], cache=cache)
        warm_hits.append(cache.run_hit)
        return out

    warm_time = measure(warm, warmup=1, repeat=5)
    assert all(warm_hits), "warm run missed the run-level cache"

    ratio = warm_time / cold_time
    assert ratio < 0.5, (
        f"warm analysis run is not measurably faster than cold "
        f"(ratio {ratio:.2f})"
    )

    report("ABL-ANALYSIS", [
        f"modules analyzed: {result.scanned}",
        f"cold run (parse, lint, extract, three engines): "
        f"{cold_time * 1000:.1f} ms",
        f"warm (run-level cache hit): {warm_time * 1000:.1f} ms",
        f"warm/cold ratio: {ratio:.3f}",
    ])
