"""Disabled-instrumentation overhead must stay below 5%.

A naive A/B wall-clock comparison between the instrumented tree and the
seed is hopelessly flaky under CI timing jitter, so this test bounds the
overhead analytically instead:

1. run once with the collector enabled to *count* how many guard sites
   one engine query actually passes through;
2. measure the real cost of the disabled-path guard (a single module
   attribute ``is None`` check) in a tight loop;
3. assert that even charging every site several guard checks, the total
   guard cost is under 5% of the measured uninstrumented query time.

The guard-site count distinguishes the two instrumentation styles:
``TopK`` operations check the guard per event, while the hot
deviation/propagation loops (the search heap's ``heap.*`` tallies
included) keep counters in locals and flush with one guarded ``add()``
per pass — so their (large) counter values contribute no per-unit
guards, only a bounded number of flushes.
"""

from __future__ import annotations

import time

from repro import CpprEngine, TimingAnalyzer
from repro.obs import collector as _obs
from tests.helpers import random_small

#: Counters whose guard really runs once per counted unit.
PER_EVENT_PREFIXES = ("topk.",)
#: Guard checks charged per site — generous: each site is one or two
#: ``ACTIVE`` lookups in the disabled path.
CHECKS_PER_SITE = 3
OVERHEAD_BUDGET = 0.05


def _make_engine() -> CpprEngine:
    graph, constraints = random_small(3, num_ffs=10, num_gates=24)
    return CpprEngine(TimingAnalyzer(graph, constraints))


def _count_guard_sites(engine: CpprEngine, k: int) -> int:
    _paths, profile = engine.profiled_top_paths(k, "setup")
    spans = sum(1 for _ in profile.iter_spans())
    per_event = sum(value for name, value in profile.counters.items()
                    if name.startswith(PER_EVENT_PREFIXES))
    # Bulk counters are flushed at most once per pass each; bound the
    # flush count by (distinct bulk counters) x (spans), a large
    # overestimate of the number of passes.
    bulk_names = sum(1 for name in profile.counters
                     if not name.startswith(PER_EVENT_PREFIXES))
    return 2 * spans + per_event + bulk_names * spans


def _guard_seconds_per_check(iterations: int = 200_000) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        if _obs.ACTIVE is not None:  # the disabled-path guard, verbatim
            raise AssertionError("collector unexpectedly active")
    return (time.perf_counter() - start) / iterations


def _disabled_query_seconds(engine: CpprEngine, k: int,
                            repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        engine.clear_cache()  # measure real queries, not memoized ones
        start = time.perf_counter()
        engine.top_paths(k, "setup")
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_guard_cost_is_under_budget():
    assert _obs.ACTIVE is None, "test requires instrumentation disabled"
    engine = _make_engine()
    engine.top_paths(2, "setup")  # warm analyzer caches

    sites = _count_guard_sites(engine, k=8)
    assert sites > 0

    per_check = _guard_seconds_per_check()
    disabled = _disabled_query_seconds(engine, k=8)

    guard_cost = sites * CHECKS_PER_SITE * per_check
    budget = OVERHEAD_BUDGET * disabled
    assert guard_cost < budget, (
        f"disabled-path guards cost {guard_cost * 1e3:.3f} ms for "
        f"{sites} sites, exceeding the {OVERHEAD_BUDGET:.0%} budget "
        f"({budget * 1e3:.3f} ms of a {disabled * 1e3:.1f} ms query)")


def test_disabled_run_records_nothing():
    engine = _make_engine()
    engine.top_paths(3, "setup")
    assert engine.last_profile is None
    assert _obs.ACTIVE is None
