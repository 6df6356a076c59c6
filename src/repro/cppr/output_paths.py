"""Primary-output path candidates (library extension).

The paper's problem statement only tests flip-flop capture pins, but real
designs also constrain primary outputs.  An output test has no capture
clock, hence no common clock path and no pessimism to remove — exactly
like primary-input launches.  This optional family seeds *both* primary
inputs and flip-flop Q pins (without credit offsets) and captures at every
primary output with a required time in the requested mode.

Enabled with ``CpprOptions(include_output_tests=True)``; disabled by
default to match the paper's problem formulation.
"""

from __future__ import annotations

from repro.cppr.deviation import CaptureSeed, run_topk
from repro.cppr.propagation import Seed, propagate_single
from repro.cppr.types import CandidateList, PathFamily, TimingPath
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode
from repro.sta.timing import TimingAnalyzer

__all__ = ["output_paths"]


def output_paths(analyzer: TimingAnalyzer, k: int,
                 mode: AnalysisMode | str,
                 heap_capacity: int | None = None,
                 backend: str = "scalar") -> CandidateList:
    """Top-``k`` paths ending at constrained primary outputs.

    Every popped path is kept: output tests carry no pessimism.
    """
    with _obs.span("output"):
        return _output_paths(analyzer, k, mode, heap_capacity, backend)


def _output_paths(analyzer: TimingAnalyzer, k: int,
                  mode: AnalysisMode | str,
                  heap_capacity: int | None,
                  backend: str) -> CandidateList:
    mode = AnalysisMode.coerce(mode)
    graph = analyzer.graph
    tree = graph.clock_tree

    seeds = [Seed(pi.pin, pi.at_late if mode.is_setup else pi.at_early)
             for pi in graph.primary_inputs]
    for ff in graph.ffs:
        node = ff.tree_node
        if mode.is_setup:
            q_at = tree.at_late(node) + ff.clk_to_q_late
        else:
            q_at = tree.at_early(node) + ff.clk_to_q_early
        seeds.append(Seed(ff.q_pin, q_at, ff.ck_pin))

    capture_pos = [po for po in graph.primary_outputs
                   if (po.rat_late if mode.is_setup else po.rat_early)
                   is not None]
    if not seeds or not capture_pos:
        return CandidateList()
    with _obs.span("propagate"):
        arrays = propagate_single(graph, mode, seeds, backend)

    capture_seeds = []
    for po in capture_pos:
        record = arrays.best(po.pin)
        if record is None:
            continue
        if mode.is_setup:
            slack = po.rat_late - record[0]
        else:
            slack = record[0] - po.rat_early
        capture_seeds.append(CaptureSeed(slack, po.pin))

    with _obs.span("search"):
        results = run_topk(graph, arrays, capture_seeds, k, mode,
                           heap_capacity)

    paths = CandidateList(
        (TimingPath(mode=mode, family=PathFamily.OUTPUT,
                    slack=result.slack, credit=0.0, pins=result.pins,
                    launch_ff=graph.ff_of_q_pin.get(result.pins[0]),
                    capture_ff=None)
         for result in results),
        boundary=results.boundary)
    _obs.add("candidates.produced.output", len(paths))
    return paths
