"""Primary-input path candidates (paper Definition 6, Algorithm 4).

Paths launched from a primary input share no clock path with their capture
clock, so there is no pessimism to remove: candidates are ranked by the
plain pre-CPPR slack and their credit is zero.
"""

from __future__ import annotations

from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.propagation import Seed, propagate_single
from repro.cppr.types import CandidateList, PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["primary_input_paths"]


def primary_input_paths(analyzer: TimingAnalyzer, k: int,
                        mode: AnalysisMode | str,
                        heap_capacity: int | None = None,
                        backend: str = "scalar",
                        arrays=None) -> CandidateList:
    """Top-``k`` primary-input path candidates, best slack first.

    Every popped path is kept: a primary-input launch is always this
    family's responsibility.

    ``arrays`` optionally supplies this family's already-propagated
    :class:`~repro.cppr.propagation.SingleArrivalArrays` (an incremental
    session's maintained state), skipping the forward pass here.
    """
    with _obs.span("primary_input"):
        return _primary_input_paths(analyzer, k, mode, heap_capacity,
                                    backend, arrays)


def _primary_input_paths(analyzer: TimingAnalyzer, k: int,
                         mode: AnalysisMode | str,
                         heap_capacity: int | None,
                         backend: str, arrays=None) -> CandidateList:
    mode = AnalysisMode.coerce(mode)
    graph = analyzer.graph
    tree = graph.clock_tree
    clock_period = analyzer.constraints.clock_period

    if arrays is None:
        seeds = [Seed(pi.pin,
                      pi.at_late if mode.is_setup else pi.at_early)
                 for pi in graph.primary_inputs]
        if not seeds:
            return CandidateList()
        with _obs.span("propagate"):
            arrays = propagate_single(graph, mode, seeds, backend)
    elif not graph.primary_inputs:
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

    with _obs.span("search"):
        results = run_topk(graph, arrays, capture_seeds, k, mode,
                           heap_capacity)

    paths = CandidateList(
        (TimingPath(mode=mode, family=PathFamily.PRIMARY_INPUT,
                    slack=result.slack, credit=0.0, pins=result.pins,
                    launch_ff=None, capture_ff=result.capture_ff)
         for result in results),
        boundary=results.boundary)
    _obs.add("candidates.produced.primary_input", len(paths))
    return paths
