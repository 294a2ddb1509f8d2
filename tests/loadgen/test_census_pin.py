"""The crush-profile fleet census is pinned across commits.

``crush_census.json`` was generated once with::

    python -m repro.tools loadgen --sessions 400 --connections 2 \
        --ops 1 --seed 11 --start-window 0.5 --timeout 1.0 \
        --max-concurrent 2 --max-queued 2 --json crush_census.json

That profile drives retries, breaker trips and structured sheds
(ok=105, circuit=68, exhausted=227, 528 sheds), so any change to the
handshake, retry/breaker or XKMS exchange logic that shifts a single
decision shows up as a byte difference here — ``--verify-determinism``
only compares two runs of the same code.
"""

from pathlib import Path

from repro.loadgen import FleetConfig, run_fleet

PINNED = Path(__file__).with_name("crush_census.json")

CRUSH = FleetConfig(sessions=400, connections=2, ops_per_session=1,
                    seed=11, start_window_s=0.5, timeout_s=1.0,
                    max_concurrent=2, max_queued=2)


def test_crush_census_matches_the_pinned_summary():
    assert run_fleet(CRUSH).summary_json() == PINNED.read_text()
