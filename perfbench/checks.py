"""Output checks: every answer is re-derived by other machinery.

A mismatch fails the run however fast it was.
"""

from __future__ import annotations

import math

#: Depth of the reference lists.  The baseline timer's search grows
#: steeply with ``k`` (about 25 s for a leon2 setup top-500 against 0.7 s
#: for its top-50), so deeper lists are checked against the reference on
#: their first ``REFERENCE_K`` ranks and for order, length, duplicates
#: and re-timed slack on every rank.
REFERENCE_K = 50


class Mismatch(Exception):
    """The program returned a wrong answer."""


def reference_slacks(analyzer, k: int) -> dict[str, list[float]]:
    """Setup and hold top-``min(k, REFERENCE_K)`` post-CPPR slacks.

    Computed by the branch-and-bound baseline timer, a best-first search
    per endpoint that shares no search or selection code with the
    engine.
    """
    from repro.baselines import BranchBoundTimer

    timer = BranchBoundTimer(analyzer)
    return {mode: timer.top_slacks(min(k, REFERENCE_K), mode)
            for mode in ("setup", "hold")}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_topk(analyzer, ranked, k: int, mode: str,
               reference: dict[str, list[float]]) -> None:
    """Check a top-``k`` answer given as ``(slack, pins)`` pairs.

    The list must have ``k`` entries, sorted, with no path twice.  Each
    path's slack is recomputed from its pin list alone with
    ``TimingAnalyzer.path_post_cppr_slack`` (pre-CPPR slack plus the
    LCA credit), and the leading slacks must equal the baseline timer's
    ``reference`` list, so a wrong, repeated or missing path fails.
    """
    if len(ranked) != k:
        raise Mismatch(f"{mode} top-{k}: got {len(ranked)} paths")
    seen = set()
    previous = -math.inf
    for rank, (slack, pins) in enumerate(ranked, start=1):
        if slack < previous:
            raise Mismatch(f"{mode} top-{k}: rank {rank} is out of order")
        previous = slack
        pins = tuple(pins)
        if pins in seen:
            raise Mismatch(f"{mode} top-{k}: rank {rank} repeats a path")
        seen.add(pins)
        retimed = analyzer.path_post_cppr_slack(list(pins), mode)
        if not _close(slack, retimed):
            raise Mismatch(f"{mode} top-{k}: rank {rank} reports slack "
                           f"{slack!r}, re-timed {retimed!r}")
    want = reference[mode]
    for rank, (expected, (slack, _pins)) in enumerate(zip(want, ranked),
                                                      start=1):
        if not _close(expected, slack):
            raise Mismatch(f"{mode} top-{k}: rank {rank} has slack "
                           f"{slack!r}, the baseline timer {expected!r}")
