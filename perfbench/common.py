"""What every workload returns, and the end-to-end statistics.

Each workload has a *read* path and a *write* path:

* ``player`` / ``player_pure``: read = one player launch (download →
  parse → verify → decrypt → permissions → execute), write = one
  studio package (sign + encrypt → publish);
* ``xkms``: read = one Locate or Validate, write = one Register or
  Revoke, each timed at the client.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

#: Kept failure messages per run (the count is always exact).
MAX_FAILURE_MESSAGES = 5


@dataclass
class Outcome:
    """Result of one measured phase of a workload.

    ``steps`` is how far the seeded input stream got (launch iterations
    or issued XKMS operations); replaying the same stream for the same
    number of steps repeats the same operations.  ``e2e_s`` is the
    time the tracing identity is stated against: the summed duration
    of the operations for the sequential player loop, the wall time of
    the loop for the concurrent XKMS callers.
    """

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    steps: int = 0
    wall_s: float = 0.0
    e2e_s: float = 0.0
    #: workload-specific counts from the program's own state.
    counts: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)


def percentile(values: list, q: float) -> float:
    """Linearly interpolated *q*-quantile (0 ≤ q ≤ 1) of *values*."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(outcome: Outcome) -> dict:
    """The workload-level metrics of an untraced phase.

    The typical latency is the mean, not the median.  The host's speed
    drifts between spells of full and of about two-thirds speed, so a
    run's latencies mix two modes.  The mean moves in proportion to the
    share of slow time, but the median jumps between the modes.  Over
    10 seeded 30 s runs of ``xkms``, the quartile spread of the median
    read latency was 21% and that of the mean 16% (2-vCPU KVM guest,
    Xeon Sapphire Rapids, Python 3.11).
    """
    completed = outcome.attempted - outcome.failed
    return {
        "read_ms_mean": (mean(outcome.read_ms), "ms"),
        "read_ms_p95": (percentile(outcome.read_ms, 0.95), "ms"),
        "write_ms_mean": (mean(outcome.write_ms), "ms"),
        "write_ms_p95": (percentile(outcome.write_ms, 0.95), "ms"),
        "ops_per_s": (completed / outcome.wall_s if outcome.wall_s
                      else 0.0, "1/s"),
    }
