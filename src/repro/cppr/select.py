"""Final top-path selection (paper Algorithm 6).

Each candidate family's ranking metric equals the true post-CPPR slack
only for the paths the family is *responsible* for: level-``d`` candidates
whose launch/capture LCA depth is exactly ``d``, self-loop candidates that
really are self-loops, and all PI/OUTPUT candidates.  Everything else is a
duplicate covered by another family (with an over-credited, i.e. larger,
slack).  Algorithm 6 discards those in lines 5 and 8; here the families
apply that test themselves as each path is popped, before it is
materialized (see :func:`~repro.cppr.deviation.run_topk`), so every
candidate reaching this module is already one its family answers for.

What remains is the reduction to the global top-``k`` with a bounded
best-k heap; by the paper's correctness theorem the result is exactly the
global top-``k`` post-CPPR critical paths.
"""

from __future__ import annotations

from typing import Iterable

from repro.cppr.types import TimingPath
from repro.ds.bounded import TopK
from repro.obs import collector as _obs
from repro.sta.timing import TimingAnalyzer

__all__ = ["select_top_paths"]


def select_top_paths(analyzer: TimingAnalyzer,
                     candidates: Iterable[TimingPath],
                     k: int) -> list[TimingPath]:
    """Reduce all family candidates to the global top-``k`` paths.

    Returns paths sorted by post-CPPR slack (most critical first); ties
    are broken deterministically by the pin sequence.  ``analyzer`` is
    unused since the responsibility test moved into the families; it is
    kept so the call signature stays the same for every caller.
    """
    with _obs.span("select"):
        return _select_top_paths(candidates, k)


def _select_top_paths(candidates: Iterable[TimingPath],
                      k: int) -> list[TimingPath]:
    considered = 0
    top = TopK(k)
    for path in candidates:
        considered += 1
        top.offer(path.slack, path)
    selected = [path for _slack, path in top.sorted_items()]
    selected.sort(key=TimingPath.key)
    col = _obs.ACTIVE
    if col is not None:
        col.add("select.considered", considered)
        col.add("select.selected", len(selected))
    return selected
