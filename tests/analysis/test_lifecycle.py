"""Lifecycle-engine behaviour: one mini-program per LIF rule (leaky
and disciplined variants), the deadline-propagation proof over the
real service chain, and LIF findings through the incremental cache."""

import os
import textwrap

import pytest

from repro.analysis import AnalysisCache, analyze_paths
from tests.analysis.helpers import family_findings

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def life(snippet: str, path: str = "src/repro/example.py"):
    return family_findings("LIF", {path: textwrap.dedent(snippet)})


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


# -- LIF401: spawned task without a retained, shut-down handle ---------------


def test_lif401_dropped_handle():
    findings = life("""
    import asyncio

    async def serve(work):
        asyncio.create_task(work())
    """)
    assert rule_ids(findings) == {"LIF401"}
    (finding,) = findings
    assert "without retaining" in finding.message


def test_lif401_unread_local_handle():
    findings = life("""
    import asyncio

    async def serve(work):
        task = asyncio.create_task(work())
        print("spawned")
    """)
    assert rule_ids(findings) == {"LIF401"}
    assert "'task'" in findings[0].message


def test_lif401_awaited_gather_is_clean():
    assert life("""
    import asyncio

    async def serve(work):
        await asyncio.gather(work(), work())
    """) == []


def test_lif401_awaited_local_is_clean():
    assert life("""
    import asyncio

    async def serve(work):
        task = asyncio.create_task(work())
        await task
    """) == []


def test_lif401_returned_handle_is_callers_problem():
    assert life("""
    import asyncio

    def spawn(work):
        return asyncio.ensure_future(work())
    """) == []


OWNED_SPAWN = """
import asyncio

class Server:
    def __init__(self):
        self._tasks = set()

    async def serve(self, work):
        task = asyncio.create_task(work())
        self._tasks.add(task)
"""


def test_lif401_owner_without_shutdown_path():
    findings = life(OWNED_SPAWN)
    assert rule_ids(findings) == {"LIF401"}
    assert "self._tasks" in findings[0].message
    assert "shutdown path" in findings[0].message


def test_lif401_owner_with_shutdown_path_is_clean():
    assert life("""
    import asyncio

    class Server:
        def __init__(self):
            self._tasks = set()

        async def serve(self, work):
            task = asyncio.create_task(work())
            self._tasks.add(task)

        async def aclose(self):
            for task in self._tasks:
                task.cancel()
    """) == []


# -- LIF402: broad except around await swallows CancelledError ---------------


def test_lif402_broad_handler_swallows_cancellation():
    findings = life("""
    async def step(op):
        try:
            await op()
        except Exception:
            return None
    """)
    assert rule_ids(findings) == {"LIF402"}
    assert "CancelledError" in findings[0].message


def test_lif402_clean_with_narrow_reraise_first():
    assert life("""
    import asyncio

    async def step(op):
        try:
            await op()
        except asyncio.CancelledError:
            raise
        except Exception:
            return None
    """) == []


def test_lif402_clean_when_broad_handler_reraises():
    assert life("""
    async def step(op):
        try:
            await op()
        except BaseException:
            raise
    """) == []


def test_lif402_broad_handler_without_await_is_clean():
    assert life("""
    async def step(op):
        try:
            op.prepare()
        except Exception:
            return None
        await op()
    """) == []


# -- LIF403: await while holding a threading lock ----------------------------


def test_lif403_await_under_threading_lock():
    findings = life("""
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        async def poke(self, op):
            with self._lock:
                await op()
    """)
    assert rule_ids(findings) == {"LIF403"}
    assert "_lock" in findings[0].message


def test_lif403_async_lock_is_clean():
    assert life("""
    class Box:
        def __init__(self, lock):
            self._alock = lock

        async def poke(self, op):
            async with self._alock:
                await op()
    """) == []


def test_lif403_lock_released_before_await_is_clean():
    assert life("""
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        async def poke(self, op):
            with self._lock:
                staged = op.stage()
            await op.run(staged)
    """) == []


# -- LIF404: async call chain drops the propagated Deadline ------------------


#: The seeded deadline-drop: ``fetch`` holds a deadline and reaches
#: the wait through ``exchange`` without filling its deadline slot.
DEADLINE_DROP = """
async def fetch(channel, deadline):
    await exchange(channel)

async def exchange(channel, deadline=None):
    await channel.clock.wait_until(channel.future, deadline.at)
"""


def test_lif404_seeded_deadline_drop_is_flagged():
    findings = life(DEADLINE_DROP)
    assert rule_ids(findings) == {"LIF404"}
    assert "exchange" in findings[0].message
    assert "'deadline'" in findings[0].message


def test_lif404_positional_threading_is_clean():
    assert life(DEADLINE_DROP.replace(
        "await exchange(channel)",
        "await exchange(channel, deadline)")) == []


def test_lif404_keyword_threading_is_clean():
    assert life(DEADLINE_DROP.replace(
        "await exchange(channel)",
        "await exchange(channel, deadline=deadline)")) == []


def test_lif404_crosses_module_boundaries():
    findings = family_findings("LIF", {
        "src/repro/alpha.py": textwrap.dedent("""
        from repro.beta import exchange

        async def fetch(channel, deadline):
            await exchange(channel)
        """),
        "src/repro/beta.py": textwrap.dedent("""
        async def exchange(channel, deadline=None):
            await channel.clock.wait_until(channel.future,
                                           deadline.at)
        """),
    })
    assert rule_ids(findings) == {"LIF404"}
    assert findings[0].location == "src/repro/alpha.py"


def test_lif404_wait_sink_with_underived_bound():
    findings = life("""
    async def fetch(clock, future, deadline, horizon):
        await clock.wait_until(future, horizon)
    """)
    assert rule_ids(findings) == {"LIF404"}
    assert "wait_until" in findings[0].message


def test_lif404_wait_sink_with_derived_bound_is_clean():
    assert life("""
    async def fetch(clock, future, context):
        limit = context.deadline
        await clock.wait_until(future, limit.at)
    """) == []


def test_lif404_bounded_sleep_is_exempt():
    # asleep/sleep are how deadline-clipped backoff is *implemented*;
    # demanding a deadline argument there would flag the protocol.
    assert life("""
    async def backoff(clock, deadline):
        await clock.asleep(0.5)
    """) == []


def test_lif404_caller_without_deadline_is_not_demanded():
    assert life("""
    async def fire_and_wait(channel):
        await exchange(channel)

    async def exchange(channel, deadline=None):
        await channel.clock.wait_until(channel.future, deadline.at)
    """) == []


def test_lif404_real_service_chain_is_proved_not_skipped():
    """The OverloadShield -> AsyncTrustService chain must be *inside*
    the proof (deadline-carrying, transitively waiting) and pass."""
    from repro.analysis.callgraph import Program
    from repro.analysis.findings import display_path
    from repro.analysis.lifecycle import LifecycleEngine
    from repro.analysis.pipeline import iter_py_files, parse_module

    infos = []
    for target in iter_py_files([os.path.join(REPO_ROOT, "src")]):
        with open(target, "rb") as handle:
            info, _ = parse_module(handle.read(), display_path(target))
        infos.append(info)
    program = Program(infos)
    paths = {info["module"]: info["path"] for info in infos}
    engine = LifecycleEngine(program, paths)
    findings = engine.run()

    run = "repro.resilience.service:OverloadShield.run"
    dispatch = "repro.network.server:AsyncServiceServer._dispatch"
    assert run in engine.scans and dispatch in engine.scans
    assert engine.scans[run].deadline_names
    assert engine.scans[dispatch].deadline_names
    assert engine._waits(run)  # reaches wait_until via admit()
    assert [f for f in findings if f.rule_id == "LIF404"] == []


# -- LIF405: acquired resource released on an escapable path -----------------


SLOT_BODY = """
async def run(admission, tenant, deadline, op):
    await admission.admit(tenant, deadline)
    return await op()
"""


def test_lif405_slot_never_released():
    findings = life(SLOT_BODY)
    assert rule_ids(findings) == {"LIF405"}
    assert "never calls admission.release()" in findings[0].message


def test_lif405_release_outside_finally():
    findings = life("""
    async def run(admission, tenant, deadline, op):
        await admission.admit(tenant, deadline)
        result = await op()
        admission.release(tenant)
        return result
    """)
    assert rule_ids(findings) == {"LIF405"}
    assert "outside any finally" in findings[0].message


def test_lif405_release_in_finally_is_clean():
    assert life("""
    async def run(admission, tenant, deadline, op):
        await admission.admit(tenant, deadline)
        try:
            return await op()
        finally:
            admission.release(tenant)
    """) == []


def test_lif405_channel_leaked_on_exception_path():
    findings = life("""
    from repro.network.channel import AsyncChannel

    async def probe(clock, op):
        channel = AsyncChannel(clock=clock)
        await op(channel.client)
    """)
    assert rule_ids(findings) == {"LIF405"}
    assert "no close on any path" in findings[0].message


def test_lif405_channel_closed_in_finally_is_clean():
    assert life("""
    from repro.network.channel import AsyncChannel

    async def probe(clock, op):
        channel = AsyncChannel(clock=clock)
        try:
            await op(channel.client)
        finally:
            channel.close()
    """) == []


def test_lif405_returned_channel_escapes_ownership():
    assert life("""
    from repro.network.channel import AsyncChannel

    async def open_channel(clock):
        channel = AsyncChannel(clock=clock)
        return channel
    """) == []


# -- incremental cache -------------------------------------------------------


MODULE_A = ("import asyncio\n\nasync def alpha(work):\n"
            "    asyncio.create_task(work())\n")
MODULE_B = "def beta():\n    return 2\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "a.py").write_text(MODULE_A)
    (tmp_path / "b.py").write_text(MODULE_B)
    return tmp_path


def test_cache_cold_then_memoized_run(tree, tmp_path):
    cache_path = str(tmp_path / "cache.json")
    cold = AnalysisCache(cache_path)
    first = analyze_paths([str(tree)], cache=cold)
    assert not cold.run_hit and cold.misses == 2
    assert "LIF401" in rule_ids(first.findings)

    warm = AnalysisCache(cache_path)
    result = analyze_paths([str(tree)], cache=warm)
    assert warm.run_hit
    assert result.scanned == 2
    assert result.findings == first.findings


def test_cache_invalidates_only_the_changed_module(tree, tmp_path):
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([str(tree)], cache=AnalysisCache(cache_path))

    (tree / "b.py").write_text(MODULE_B + "\ndef gamma():\n    return 3\n")
    edited = AnalysisCache(cache_path)
    analyze_paths([str(tree)], cache=edited)
    assert not edited.run_hit
    assert edited.hits == 1 and edited.misses == 1
