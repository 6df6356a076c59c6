"""Tests for the deviation-edge top-k search (paper Algorithm 5)."""

from __future__ import annotations

from heapq import heappush

import pytest

from repro import CpprEngine, CpprOptions, TimingAnalyzer
from repro.cppr import deviation
from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.propagation import Seed, propagate_single
from repro.exceptions import AnalysisError
from repro.obs import collecting
from repro.sta.modes import AnalysisMode
from repro.workloads.suite import build_design
from tests.helpers import demo_netlist, random_small

UNBOUNDED = 10**6


def simple_search(graph, mode, k, heap_capacity=None):
    """Run the ungrouped search from every FF D pin on ``graph``."""
    tree = graph.clock_tree
    seeds = []
    for ff in graph.ffs:
        if mode.is_setup:
            time = tree.at_late(ff.tree_node) + ff.clk_to_q_late
        else:
            time = tree.at_early(ff.tree_node) + ff.clk_to_q_early
        seeds.append(Seed(ff.q_pin, time, ff.ck_pin))
    arrays = propagate_single(graph, mode, seeds)
    captures = []
    for ff in graph.ffs:
        record = arrays.best(ff.d_pin)
        if record is None:
            continue
        if mode.is_setup:
            slack = (tree.at_early(ff.tree_node) + 6.0 - ff.t_setup
                     - record[0])
        else:
            slack = record[0] - tree.at_late(ff.tree_node) - ff.t_hold
        captures.append(CaptureSeed(slack, ff.d_pin, capture_ff=ff.index))
    return run_topk(graph, arrays, captures, k, mode,
                    heap_capacity=heap_capacity)


class TestValidation:
    def test_k_zero_rejected(self):
        graph = demo_netlist().elaborate()
        with pytest.raises(AnalysisError, match="k must be"):
            simple_search(graph, AnalysisMode.SETUP, 0)

    def test_capacity_below_k_rejected(self):
        graph = demo_netlist().elaborate()
        with pytest.raises(AnalysisError, match="heap capacity"):
            simple_search(graph, AnalysisMode.SETUP, 5, heap_capacity=3)


class TestSearch:
    def test_results_sorted_by_slack(self):
        graph = demo_netlist().elaborate()
        results = simple_search(graph, AnalysisMode.SETUP, 10)
        slacks = [r.slack for r in results]
        assert slacks == sorted(slacks)

    def test_paths_are_unique(self):
        graph = demo_netlist().elaborate()
        results = simple_search(graph, AnalysisMode.SETUP, 10)
        assert len({r.pins for r in results}) == len(results)

    def test_paths_follow_real_edges(self):
        graph = demo_netlist().elaborate()
        edges = {(u, v) for u in range(graph.num_pins)
                 for v, _e, _l in graph.fanout[u]}
        for result in simple_search(graph, AnalysisMode.HOLD, 10):
            for u, v in zip(result.pins, result.pins[1:]):
                assert (u, v) in edges

    def test_paths_start_at_q_and_end_at_capture(self):
        graph = demo_netlist().elaborate()
        for result in simple_search(graph, AnalysisMode.SETUP, 10):
            assert result.pins[0] in graph.ff_of_q_pin
            assert result.pins[-1] == result.capture_pin

    def test_k_larger_than_path_count_returns_all(self):
        graph = demo_netlist().elaborate()
        results = simple_search(graph, AnalysisMode.SETUP, 10_000)
        # The demo circuit has finitely many FF->FF paths; asking for more
        # returns exactly the existing ones, no duplicates, no crash.
        assert len({r.pins for r in results}) == len(results)
        assert len(results) < 10_000

    def test_bounded_heap_matches_unbounded_prefix(self):
        for seed in range(10):
            graph, _constraints = random_small(seed)
            bounded = simple_search(graph, AnalysisMode.SETUP, 8)
            unbounded = simple_search(graph, AnalysisMode.SETUP, 8,
                                      heap_capacity=10_000)
            assert [round(r.slack, 9) for r in bounded] == \
                   [round(r.slack, 9) for r in unbounded]

    def test_deviation_costs_are_nonnegative(self):
        """Successive slacks never decrease -> every deviation cost >= 0."""
        for seed in range(10):
            graph, _constraints = random_small(seed)
            for mode in (AnalysisMode.SETUP, AnalysisMode.HOLD):
                results = simple_search(graph, mode, 20)
                slacks = [r.slack for r in results]
                assert slacks == sorted(slacks)


@pytest.fixture
def live_peak(monkeypatch):
    """Record the largest live heap any search reaches (after a push)."""
    peak = [0]

    def spy(heap, entry):
        heappush(heap, entry)
        peak[0] = max(peak[0], len(heap))

    monkeypatch.setattr(deviation, "heappush", spy)
    return peak


def _report(paths):
    return [(p.slack, p.pins, p.family, p.level, p.credit) for p in paths]


class TestSpaceBound:
    """Algorithm 5 / Theorem 2: the live path set stays ``O(k)``.

    The heap is cut back to the ``remaining`` best entries whenever it
    reaches ``2·remaining``, so no search ever holds more than
    ``2·capacity`` entries; and the cut never changes a report.
    """

    def test_random_small_within_twice_capacity(self, live_peak):
        for seed in range(10):
            graph, _constraints = random_small(seed)
            for mode in AnalysisMode:
                for k in (1, 2, 5, 8):
                    live_peak[0] = 0
                    simple_search(graph, mode, k)
                    assert live_peak[0] <= 2 * k, (seed, mode, k)

    def test_random_small_unbounded_capacity_identical(self):
        for seed in range(10):
            graph, _constraints = random_small(seed)
            for mode in AnalysisMode:
                for k in (1, 5, 20):
                    assert simple_search(graph, mode, k) == simple_search(
                        graph, mode, k, heap_capacity=UNBOUNDED)

    @pytest.mark.parametrize("mode", ["setup", "hold"])
    def test_suite_design_k500(self, live_peak, mode):
        analyzer = TimingAnalyzer(*build_design("vga_lcdv2"))
        with collecting():
            engine = CpprEngine(analyzer)
            bounded = engine.top_paths(500, mode)
        assert 500 < live_peak[0] <= 1000
        assert engine.last_profile.counter("heap.prune") > 0
        unbounded = CpprEngine(analyzer, CpprOptions(
            heap_capacity=UNBOUNDED)).top_paths(500, mode)
        assert _report(unbounded) == _report(bounded)
