"""Self-loop path candidates (paper Definition 5, Algorithm 3).

Paths whose launching and capturing flip-flop coincide have
``LCA(u, u) = u``, so their full launch-clock-path credit ``credit(u)`` is
removed.  The candidate set ranks *every* path by
``slack(p, depth(p.lauFF))`` — folding ``credit(lauFF)`` into each launch
seed — which over-credits non-self-loop paths (their real LCA is an
ancestor with no larger credit) and therefore never lets them displace a
true top-k self-loop path.  The pass pops ``k`` paths by that metric and
returns only the true self-loops among them (Algorithm 6 line 8, tested
on each popped path's launch pin before it is materialized).

No grouping or fallback tuples are needed, so this pass uses the single-
tuple propagation.
"""

from __future__ import annotations

from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.propagation import Seed, propagate_single
from repro.cppr.types import CandidateList, PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["self_loop_paths"]


def self_loop_paths(analyzer: TimingAnalyzer, k: int,
                    mode: AnalysisMode | str,
                    heap_capacity: int | None = None,
                    backend: str = "scalar",
                    arrays=None) -> CandidateList:
    """Self-loop paths among the top ``k`` candidates, best slack first.

    The result's ``boundary`` is the slack of the ``k``-th candidate
    popped (see :class:`~repro.cppr.types.CandidateList`).

    ``arrays`` optionally supplies this family's already-propagated
    :class:`~repro.cppr.propagation.SingleArrivalArrays` (an incremental
    session's maintained state), skipping the forward pass here — the
    same contract as the ``batch`` parameter of
    :func:`~repro.cppr.level_paths.paths_at_level`.
    """
    with _obs.span("self_loop"):
        return _self_loop_paths(analyzer, k, mode, heap_capacity, backend,
                                arrays)


def _self_loop_paths(analyzer: TimingAnalyzer, k: int,
                     mode: AnalysisMode | str,
                     heap_capacity: int | None,
                     backend: str, arrays=None) -> CandidateList:
    mode = AnalysisMode.coerce(mode)
    graph = analyzer.graph
    tree = graph.clock_tree
    clock_period = analyzer.constraints.clock_period

    if arrays is None:
        seeds = []
        for ff in graph.ffs:
            node = ff.tree_node
            credit = tree.credit(node)
            if mode.is_setup:
                q_at = tree.at_late(node) + ff.clk_to_q_late - credit
            else:
                q_at = tree.at_early(node) + ff.clk_to_q_early + credit
            seeds.append(Seed(ff.q_pin, q_at, ff.ck_pin))

        if not seeds:
            return CandidateList()
        with _obs.span("propagate"):
            arrays = propagate_single(graph, mode, seeds, backend)
    elif not graph.ffs:
        return CandidateList()

    capture_seeds = []
    for ff in graph.ffs:
        record = arrays.best(ff.d_pin)
        if record is None:
            continue
        if mode.is_setup:
            slack = (tree.at_early(ff.tree_node) + clock_period
                     - ff.t_setup - record[0])
        else:
            slack = record[0] - (tree.at_late(ff.tree_node) + ff.t_hold)
        capture_seeds.append(
            CaptureSeed(slack, ff.d_pin, capture_ff=ff.index))

    ff_of_q_pin = graph.ff_of_q_pin

    def keep(launch_pin: int, seed: CaptureSeed) -> bool:
        return ff_of_q_pin[launch_pin] == seed.capture_ff

    with _obs.span("search"):
        results = run_topk(graph, arrays, capture_seeds, k, mode,
                           heap_capacity, keep)

    paths = CandidateList(boundary=results.boundary, popped=results.popped)
    for result in results:
        ff = result.capture_ff
        paths.append(TimingPath(
            mode=mode, family=PathFamily.SELF_LOOP, slack=result.slack,
            credit=tree.credit(graph.ffs[ff].tree_node),
            pins=result.pins, launch_ff=ff, capture_ff=ff))
    _obs.add("candidates.produced.self_loop", results.popped)
    _obs.add("candidates.dropped.self_loop", results.popped - len(paths))
    return paths
