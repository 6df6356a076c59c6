"""Dirty-cone tracking and the sigma slack lower bounds."""

from __future__ import annotations

import pytest

from repro import DelayUpdate, TimingAnalyzer
from repro.core import HAVE_NUMPY
from repro.pipeline.bounds import SIGMA_SLOP, sigma_min
from repro.pipeline.dirty import (clock_dirty_ffs, fanout_cone,
                                  topo_positions)
from repro.pipeline.state import build_mode_state
from repro.sta.incremental import apply_clock_updates
from repro.sta.modes import AnalysisMode
from tests.helpers import demo_design, random_small

INF = float("inf")


class TestFanoutCone:
    def test_cone_is_inclusive_and_topo_ordered(self):
        graph, _ = demo_design()
        positions = topo_positions(graph)
        root = graph.pin_index["g1/A0"]
        cone = fanout_cone(graph, [root], positions)
        assert root in cone
        assert cone == sorted(cone, key=positions.__getitem__)
        # Every fanout target of a cone pin is itself in the cone.
        members = set(cone)
        for pin in cone:
            for target, _e, _l in graph.fanout[pin]:
                assert target in members

    def test_cap_triggers_fallback_signal(self):
        graph, _ = demo_design()
        positions = topo_positions(graph)
        root = graph.pin_index["ff1/Q"]
        full = fanout_cone(graph, [root], positions)
        assert fanout_cone(graph, [root], positions,
                           cap=len(full) - 1) is None
        assert fanout_cone(graph, [root], positions,
                           cap=len(full)) == full

    def test_sink_pin_cone_is_itself(self):
        graph, _ = demo_design()
        positions = topo_positions(graph)
        sink = graph.pin_index["ff2/D"]
        assert fanout_cone(graph, [sink], positions) == [sink]


class TestClockDirtyFfs:
    def test_subtree_edit_marks_only_its_leaves(self):
        graph, _ = demo_design()
        old = graph.clock_tree
        # b1 subtree carries ff1 and ff2 (demo_netlist wiring).
        new = apply_clock_updates(graph, {"b1": (1.1, 1.6)}).clock_tree
        dirty = clock_dirty_ffs(old, new)
        names = {graph.ffs[index].name for index in dirty}
        assert names == {"ff1", "ff2"}

    def test_identity_edit_marks_nothing(self):
        graph, _ = demo_design()
        old = graph.clock_tree
        node = old.names.index("b1")
        same = apply_clock_updates(
            graph, {"b1": (old.delays_early[node],
                           old.delays_late[node])}).clock_tree
        assert clock_dirty_ffs(old, same) == []


class TestSigmaMin:
    def _setup(self, seed=11, backend="scalar"):
        graph, constraints = random_small(seed, num_ffs=8, num_gates=20)
        analyzer = TimingAnalyzer(graph, constraints)
        mode = AnalysisMode.SETUP
        state = build_mode_state(graph, mode, backend, True, True)
        core = None
        if backend == "array":
            from repro.core.arrays import get_core
            core = get_core(graph)
        return graph, analyzer, state, core

    def _edge(self, graph):
        for u in range(graph.num_pins):
            for v, e, l in graph.fanout[u]:
                return u, v, e, l
        raise AssertionError("no edges")

    def test_no_runs_means_infinite_bounds(self):
        graph, analyzer, state, core = self._setup()
        rows = list(range(state.num_rows))
        empty = [{} for _ in range(state.num_rows)]
        sigmas = sigma_min(graph, core, state, rows, [], empty,
                           analyzer.constraints.clock_period, "scalar")
        assert all(sigmas[row] == INF for row in rows)

    def test_finite_sigma_bounds_real_crossing_paths(self):
        """Every reported candidate path through the edited run must
        have ranking slack >= sigma for its row — the soundness
        property the family-serve rule rests on."""
        from repro.cppr.level_paths import paths_at_level

        for backend in ("scalar", "array") if HAVE_NUMPY else ("scalar",):
            graph, analyzer, state, core = self._setup(seed=13,
                                                       backend=backend)
            u, v, _e, late = self._edge(graph)
            runs = [(u, v, late)]  # unchanged delay: bounds current run
            rows = list(range(len(state.levels)))
            empty = [{} for _ in range(state.num_rows)]
            sigmas = sigma_min(graph, core, state, rows, runs, empty,
                               analyzer.constraints.clock_period,
                               backend)
            for level in rows:
                paths = paths_at_level(analyzer, level, 50, "setup",
                                       backend=backend)
                crossing = [p for p in paths
                            if any(p.pins[i] == u and p.pins[i + 1] == v
                                   for i in range(len(p.pins) - 1))]
                for path in crossing:
                    # The per-level ranking slack is the path slack plus
                    # the level credit already folded in by the family.
                    assert path.slack >= sigmas[level] - 1e-9, (
                        backend, level, path.slack, sigmas[level])

    @pytest.mark.skipif(not HAVE_NUMPY, reason="compares against numpy")
    def test_scalar_and_numpy_sweeps_agree(self):
        graph, analyzer, state, core = self._setup(seed=17,
                                                   backend="array")
        u, v, _e, late = self._edge(graph)
        runs = [(u, v, late + 0.7)]
        rows = list(range(state.num_rows))
        empty = [{} for _ in range(state.num_rows)]
        period = analyzer.constraints.clock_period
        via_numpy = sigma_min(graph, core, state, rows, runs, empty,
                              period, "array")
        via_python = sigma_min(graph, None, state, rows, runs, empty,
                               period, "array")
        for row in rows:
            a, b = via_numpy[row], via_python[row]
            assert (a == b == INF) or abs(a - b) <= 1e-9, (row, a, b)

    def test_slop_is_applied_to_finite_bounds(self):
        graph, analyzer, state, core = self._setup(seed=19)
        u, v, _e, late = self._edge(graph)
        runs = [(u, v, late)]
        rows = list(range(state.num_rows))
        empty = [{} for _ in range(state.num_rows)]
        period = analyzer.constraints.clock_period
        sigmas = sigma_min(graph, core, state, rows, runs, empty,
                           period, "scalar")
        finite = [s for s in sigmas.values() if s != INF]
        assert finite, "expected at least one reachable row"
        assert SIGMA_SLOP > 0
