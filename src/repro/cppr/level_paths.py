"""Per-level path candidates (paper Definitions 3-4, Algorithms 2 and 5).

``paths_at_level(analyzer, d, k, mode)`` returns the top-``k`` paths whose
launching and capturing flip-flops lie in *different* groups when the
clock tree is cut below level ``d`` (equivalently: LCA depth <= ``d``),
ranked by the d-pessimism-removed slack
``slack(p, d) = slack(p) + credit(f_d(p.lauFF))``.

The launch credit is folded into the Q-pin seed arrival — subtracted for
setup (a *later* launch looks worse, so removing pessimism pulls the
launch earlier) and added for hold — exactly Algorithm 2 lines 4 and 6.

The pass returns only the paths it is responsible for: those whose
launch/capture LCA depth is exactly ``d`` (Algorithm 6 line 5).  The
search pops ``k`` paths as before and tests each popped path's launch
flip-flop before materializing it; launch and capture lie in different
``f_{d+1}`` groups, so the LCA depth is ``d`` exactly when the two groups
share their parent.
"""

from __future__ import annotations

from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.grouping import group_for_level
from repro.cppr.propagation import Seed, propagate_dual
from repro.cppr.types import CandidateList, PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["paths_at_level"]


def paths_at_level(analyzer: TimingAnalyzer, level: int, k: int,
                   mode: AnalysisMode | str,
                   heap_capacity: int | None = None,
                   backend: str = "scalar",
                   batch=None) -> CandidateList:
    """Level-``level`` candidates among the top ``k``, best slack first.

    Of the ``k`` best paths by d-pessimism-removed slack, returns those
    whose LCA depth is exactly ``level``; the result's ``boundary`` is
    the slack of the ``k``-th (see
    :class:`~repro.cppr.types.CandidateList`).

    Runs one grouped forward pass (``O(n)``) plus the deviation search
    (``O(k log k)`` heap work along paths), matching the per-level cost in
    the paper's complexity theorem.  ``backend`` selects the scalar or
    array substrate for the pass (see :mod:`repro.core`); results are
    identical.  When ``batch`` carries a pre-computed
    :class:`~repro.core.batched.BatchedLevels` sweep for this mode, the
    pass consumes its level slice instead of propagating — only the
    deviation search runs here, which is what lets the engine's
    executors still parallelize the searches.
    """
    with _obs.span("level", level):
        return _paths_at_level(analyzer, level, k, mode, heap_capacity,
                               backend, batch)


def _paths_at_level(analyzer: TimingAnalyzer, level: int, k: int,
                    mode: AnalysisMode | str, heap_capacity: int | None,
                    backend: str, batch=None) -> CandidateList:
    mode = AnalysisMode.coerce(mode)
    graph = analyzer.graph
    tree = graph.clock_tree
    clock_period = analyzer.constraints.clock_period

    if batch is not None:
        grouping = batch.grouping(level)
        if not batch.num_seeds(level):
            # Mirrors the empty-seed early return below: a standalone
            # pass would not have propagated either.
            return CandidateList()
        with _obs.span("propagate.slice"):
            arrays = batch.arrays(level)
    else:
        grouping = group_for_level(tree, level, graph.num_ffs, backend)

        seeds = []
        for ff in graph.ffs:
            if not grouping.participates(ff.index):
                continue
            node = ff.tree_node
            offset = grouping.launch_offset[ff.index]
            if mode.is_setup:
                q_at = tree.at_late(node) + ff.clk_to_q_late - offset
            else:
                q_at = tree.at_early(node) + ff.clk_to_q_early + offset
            seeds.append(Seed(ff.q_pin, q_at, ff.ck_pin,
                              grouping.group[ff.index]))

        if not seeds:
            return CandidateList()
        with _obs.span("propagate"):
            arrays = propagate_dual(graph, mode, seeds, backend)

    capture_seeds = []
    for ff in graph.ffs:
        if not grouping.participates(ff.index):
            continue
        capture_group = grouping.group[ff.index]
        record = arrays.auto(ff.d_pin, capture_group)
        if record is None:
            continue
        if mode.is_setup:
            slack = (tree.at_early(ff.tree_node) + clock_period
                     - ff.t_setup - record[0])
        else:
            slack = record[0] - (tree.at_late(ff.tree_node) + ff.t_hold)
        capture_seeds.append(
            CaptureSeed(slack, ff.d_pin, capture_group, ff.index))

    group = grouping.group
    parent = tree.parent
    ff_of_q_pin = graph.ff_of_q_pin

    def keep(launch_pin: int, seed: CaptureSeed) -> bool:
        return parent(group[ff_of_q_pin[launch_pin]]) == parent(seed.group)

    with _obs.span("search"):
        results = run_topk(graph, arrays, capture_seeds, k, mode,
                           heap_capacity, keep)

    paths = CandidateList(boundary=results.boundary, popped=results.popped)
    for result in results:
        launch_ff = ff_of_q_pin[result.pins[0]]
        paths.append(TimingPath(
            mode=mode, family=PathFamily.LEVEL, slack=result.slack,
            credit=grouping.launch_offset[launch_ff], pins=result.pins,
            launch_ff=launch_ff, capture_ff=result.capture_ff,
            level=level))
    _obs.add("candidates.produced.level", results.popped)
    _obs.add("candidates.dropped.level", results.popped - len(paths))
    return paths
