"""Tests for the three candidate families against the paper's lemmas."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

import repro.cppr.level_paths as level_module
import repro.cppr.pi_paths as pi_module
import repro.cppr.selfloop_paths as selfloop_module
from repro.baselines.exhaustive import ExhaustiveTimer
from repro.core import HAVE_NUMPY
from repro.cppr import deviation
from repro.cppr.level_paths import paths_at_level
from repro.cppr.pi_paths import primary_input_paths
from repro.cppr.selfloop_paths import self_loop_paths
from repro.cppr.types import CandidateList, PathFamily
from repro.obs import collecting
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer
from tests.helpers import demo_analyzer, quantized_design, random_small

MODES = [AnalysisMode.SETUP, AnalysisMode.HOLD]
INF = float("inf")


def analyzer_for(seed):
    graph, constraints = random_small(seed)
    return TimingAnalyzer(graph, constraints)


def _record_pops(monkeypatch, module) -> list:
    """Make ``module``'s search also record every pop, unfiltered.

    Each family call appends the list ``run_topk`` returns without a
    keep-test: every popped path, materialized, in pop order.
    """
    pops = []
    real = deviation.run_topk

    def spy(graph, arrays, seeds, k, mode, heap_capacity=None, keep=None):
        pops.append(real(graph, arrays, seeds, k, mode, heap_capacity))
        return real(graph, arrays, seeds, k, mode, heap_capacity, keep)

    monkeypatch.setattr(module, "run_topk", spy)
    return pops


def _launch_ff(analyzer, pop):
    return analyzer.graph.ff_of_q_pin[pop.pins[0]]


def _has_lca_depth(analyzer, level):
    """Algorithm 6's level predicate, as the select stage applied it."""
    tree = analyzer.clock_tree
    ffs = analyzer.graph.ffs

    def test(pop):
        return tree.lca_depth(ffs[_launch_ff(analyzer, pop)].tree_node,
                              ffs[pop.capture_ff].tree_node) == level
    return test


def _is_self_loop(analyzer):
    """Algorithm 6's self-loop predicate, as the select stage applied it."""
    return lambda pop: _launch_ff(analyzer, pop) == pop.capture_ff


def _assert_filtered(analyzer, paths, pops, k, predicate):
    """``paths`` is exactly "materialize every pop, then filter"."""
    assert isinstance(paths, CandidateList)
    want = [pop for pop in pops if predicate(pop)]
    assert ([(p.slack, p.pins, p.capture_ff) for p in paths]
            == [(w.slack, w.pins, w.capture_ff) for w in want])
    for path in paths:
        if path.launch_ff is not None:
            assert path.launch_ff == _launch_ff(analyzer, path)
    assert paths.popped == len(pops)
    assert paths.boundary == (pops[k - 1].slack if len(pops) >= k else INF)


class TestLevelCandidates:
    def test_constraints_of_definition_four(self):
        """Every level-d candidate has lauFF != capFF and LCA depth <= d."""
        for seed in range(15):
            analyzer = analyzer_for(seed)
            tree = analyzer.clock_tree
            for mode in MODES:
                for level in range(tree.num_levels):
                    for path in paths_at_level(analyzer, level, 10, mode):
                        assert path.launch_ff != path.capture_ff
                        launch = analyzer.graph.ffs[path.launch_ff]
                        capture = analyzer.graph.ffs[path.capture_ff]
                        assert tree.lca_depth(launch.tree_node,
                                              capture.tree_node) <= level

    def test_ranked_by_d_pessimism_removed_slack(self):
        """Candidate slack equals pre-CPPR slack + credit(f_d(lauFF))."""
        for seed in range(15):
            analyzer = analyzer_for(seed)
            tree = analyzer.clock_tree
            for mode in MODES:
                for level in range(tree.num_levels):
                    for path in paths_at_level(analyzer, level, 6, mode):
                        launch = analyzer.graph.ffs[path.launch_ff]
                        ancestor = tree.ancestor_at_depth(launch.tree_node,
                                                          level)
                        expected = (analyzer.path_pre_cppr_slack(
                            list(path.pins), mode)
                            + tree.credit(ancestor))
                        assert path.slack == pytest.approx(expected)
                        assert path.credit == pytest.approx(
                            tree.credit(ancestor))

    def test_exact_depth_candidates_carry_true_post_cppr_slack(self):
        for seed in range(15):
            analyzer = analyzer_for(seed)
            tree = analyzer.clock_tree
            for mode in MODES:
                for level in range(tree.num_levels):
                    for path in paths_at_level(analyzer, level, 6, mode):
                        launch = analyzer.graph.ffs[path.launch_ff]
                        capture = analyzer.graph.ffs[path.capture_ff]
                        if tree.lca_depth(launch.tree_node,
                                          capture.tree_node) != level:
                            continue
                        assert path.slack == pytest.approx(
                            analyzer.path_post_cppr_slack(
                                list(path.pins), mode))

    def test_level_coverage_lemma(self):
        """Each true top-k path with LCA depth d appears in P_d(k)."""
        for seed in range(10):
            analyzer = analyzer_for(seed)
            tree = analyzer.clock_tree
            graph = analyzer.graph
            k = 8
            for mode in MODES:
                oracle = [p for p in
                          ExhaustiveTimer(analyzer).top_paths(k, mode)
                          if p.family is PathFamily.LEVEL]
                by_level = {d: {q.pins for q in
                                paths_at_level(analyzer, d, k, mode)}
                            for d in range(tree.num_levels)}
                for want in oracle:
                    depth = tree.lca_depth(
                        graph.ffs[want.launch_ff].tree_node,
                        graph.ffs[want.capture_ff].tree_node)
                    # Same-slack ties may swap which pin list appears, so
                    # check by slack membership instead of exact pins.
                    level_paths = paths_at_level(analyzer, depth, k, mode)
                    slacks = [round(p.slack, 9) for p in level_paths]
                    assert round(want.slack, 9) in slacks


class TestSelfLoopCandidates:
    def test_metric_folds_launch_credit(self):
        for seed in range(15):
            analyzer = analyzer_for(seed)
            tree = analyzer.clock_tree
            for mode in MODES:
                for path in self_loop_paths(analyzer, 8, mode):
                    launch = analyzer.graph.ffs[path.launch_ff]
                    expected = (analyzer.path_pre_cppr_slack(
                        list(path.pins), mode)
                        + tree.credit(launch.tree_node))
                    assert path.slack == pytest.approx(expected)
                    assert path.family is PathFamily.SELF_LOOP

    def test_true_self_loops_covered(self):
        """Every oracle top-k self-loop appears among the candidates."""
        for seed in range(10):
            analyzer = analyzer_for(seed)
            k = 8
            for mode in MODES:
                oracle = [p for p in
                          ExhaustiveTimer(analyzer).top_paths(k, mode)
                          if p.is_self_loop]
                candidates = self_loop_paths(analyzer, k, mode)
                slacks = [round(p.slack, 9) for p in candidates]
                for want in oracle:
                    assert round(want.slack, 9) in slacks


class TestPrimaryInputCandidates:
    def test_paths_start_at_primary_inputs(self):
        for seed in range(15):
            analyzer = analyzer_for(seed)
            pi_pins = {p.pin for p in analyzer.graph.primary_inputs}
            for mode in MODES:
                for path in primary_input_paths(analyzer, 8, mode):
                    assert path.pins[0] in pi_pins
                    assert path.launch_ff is None
                    assert path.credit == 0.0

    def test_slack_is_plain_pre_cppr_slack(self):
        for seed in range(15):
            analyzer = analyzer_for(seed)
            for mode in MODES:
                for path in primary_input_paths(analyzer, 8, mode):
                    assert path.slack == pytest.approx(
                        analyzer.path_pre_cppr_slack(list(path.pins),
                                                     mode))

    def test_no_primary_inputs_yields_empty(self):
        analyzer = analyzer_for(3)
        graph = analyzer.graph
        graph.primary_inputs.clear()
        for mode in MODES:
            assert primary_input_paths(analyzer, 5, mode) == []


class TestDemoFamilies:
    def test_demo_has_level_candidates_at_both_levels(self):
        analyzer = demo_analyzer()
        for mode in MODES:
            level0 = paths_at_level(analyzer, 0, 10, mode)
            level1 = paths_at_level(analyzer, 1, 10, mode)
            assert level0 and level1

    def test_demo_feedback_loop_detected_as_self_loop_candidate(
            self, monkeypatch):
        analyzer = demo_analyzer()
        # ff1 -> g1 -> ff2 -> g3 -> ff1 closes a loop through two FFs, so
        # the self-loop search pops its paths; none of them launches and
        # captures at the same FF, so the family must keep none of them.
        pops = _record_pops(monkeypatch, selfloop_module)
        paths = self_loop_paths(analyzer, 50, AnalysisMode.SETUP)
        assert pops and pops[0], "the loop must reach the search"
        assert all(p.launch_ff == p.capture_ff for p in paths)
        _assert_filtered(analyzer, paths, pops[0], 50,
                         _is_self_loop(analyzer))


CONTRACT_DESIGNS = ([("random", seed) for seed in range(6)]
                    + [("quantized", seed) for seed in (1, 2, 5)])
SUBSTRATES = ["scalar", "array", "batched"]


def _contract_analyzer(kind, seed):
    if kind == "random":
        return analyzer_for(seed)
    return TimingAnalyzer(*quantized_design(seed))


@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("kind,seed", CONTRACT_DESIGNS)
def test_families_keep_exactly_the_responsible_pops(monkeypatch, kind,
                                                    seed, mode, substrate):
    """Each family returns its filtered pops and the k-th pop's slack.

    The keep-test runs before a path is materialized, on the launch pin
    the expansion walk stops at; it must select exactly the pops the
    select stage's old predicates accepted (LCA depth == d for level
    ``d``, launch == capture for self-loops, everything for PI), in pop
    order, and the result's ``boundary`` must be the ``k``-th pop.
    """
    if substrate != "scalar" and not HAVE_NUMPY:
        pytest.skip("array substrates need numpy")
    analyzer = _contract_analyzer(kind, seed)
    backend = "scalar" if substrate == "scalar" else "array"
    batch = None
    if substrate == "batched":
        from repro.core.batched import propagate_dual_batched
        batch = propagate_dual_batched(analyzer.graph, mode)
    level_pops = _record_pops(monkeypatch, level_module)
    loop_pops = _record_pops(monkeypatch, selfloop_module)
    pi_pops = _record_pops(monkeypatch, pi_module)
    for k in (1, 8, 40):
        for level in range(analyzer.clock_tree.num_levels):
            level_pops.clear()
            paths = paths_at_level(analyzer, level, k, mode, None, backend,
                                   batch)
            pops = level_pops[0] if level_pops else []
            _assert_filtered(analyzer, paths, pops, k,
                             _has_lca_depth(analyzer, level))
            assert all(p.level == level for p in paths)
        loop_pops.clear()
        paths = self_loop_paths(analyzer, k, mode, None, backend)
        _assert_filtered(analyzer, paths, loop_pops[0], k,
                         _is_self_loop(analyzer))
        pi_pops.clear()
        paths = primary_input_paths(analyzer, k, mode, None, backend)
        _assert_filtered(analyzer, paths, pi_pops[0], k, lambda pop: True)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_dropped_counters_count_the_filtered_pops(mode):
    """``candidates.dropped.*`` is popped minus kept, per family."""
    analyzer = TimingAnalyzer(*quantized_design(2))
    k = 40
    with collecting() as col:
        levels = [paths_at_level(analyzer, level, k, mode)
                  for level in range(analyzer.clock_tree.num_levels)]
        loops = self_loop_paths(analyzer, k, mode)
    profile = col.profile()
    dropped_level = sum(p.popped - len(p) for p in levels)
    assert dropped_level > 0, "the design must exercise the filter"
    assert profile.counter("candidates.dropped.level") == dropped_level
    assert profile.counter("candidates.produced.level") == sum(
        p.popped for p in levels)
    assert profile.counter("candidates.dropped.self_loop") == (
        loops.popped - len(loops))


def test_candidate_list_pickles_with_its_boundary():
    """The process executor ships family results back by pickle."""
    paths = self_loop_paths(TimingAnalyzer(*quantized_design(1)), 8,
                            AnalysisMode.SETUP)
    clone = pickle.loads(pickle.dumps(paths))
    assert isinstance(clone, CandidateList)
    assert clone == paths
    assert (clone.boundary, clone.popped) == (paths.boundary, paths.popped)


@given(st.integers(min_value=0, max_value=150))
def test_candidate_count_bounded_by_k(seed):
    analyzer = analyzer_for(seed)
    tree = analyzer.clock_tree
    k = 5
    for mode in MODES:
        for level in range(tree.num_levels):
            assert len(paths_at_level(analyzer, level, k, mode)) <= k
        assert len(self_loop_paths(analyzer, k, mode)) <= k
        assert len(primary_input_paths(analyzer, k, mode)) <= k
