"""A cached family is revalidated against its k-th *pop*.

Level and self-loop families keep only the popped paths they are
responsible for, so a family list may hold fewer than ``k`` paths even
though its search popped ``k``.  The session's serve-or-drop test must
compare the sigma bound with the slack of the ``k``-th pop (the list's
``boundary``); reading the boundary off the filtered list would call
such a family exhausted (boundary ``inf``) and drop it on every delay
edit, which no answer would reveal — only the rerun count.
"""

from __future__ import annotations

import pytest

import repro.cppr.level_paths as level_module
import repro.cppr.selfloop_paths as selfloop_module
from repro import CpprEngine, CpprOptions, DelayUpdate, TimingAnalyzer
from repro.cppr import deviation
from repro.obs import collecting
from repro.sta.incremental import apply_delay_updates
from tests.helpers import random_small

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy required")

CONFIGS = [
    pytest.param("scalar", "off", id="scalar"),
    pytest.param("array", "off", id="array", marks=needs_numpy),
    pytest.param("array", "on", id="array-batched", marks=needs_numpy),
]

MODES = ("setup", "hold")
K = 2


def _design():
    return random_small(1, num_ffs=10, num_gates=40)


def _off_critical_edit(analyzer) -> DelayUpdate:
    """A small delay change on the data edge into the least critical FF.

    The flip-flop whose worst pre-CPPR endpoint slack, over both modes,
    is the largest: every path the edit touches is captured there, so
    each one ranks behind every family's k-th pop and the sigma bound
    clears every boundary while staying finite.
    """
    graph = analyzer.graph
    worst: dict[int, float] = {}
    for mode in MODES:
        for endpoint in analyzer.endpoint_slacks(mode):
            if endpoint.ff_index is None or endpoint.slack is None:
                continue
            ff = endpoint.ff_index
            worst[ff] = min(worst.get(ff, endpoint.slack), endpoint.slack)
    ff = max(worst, key=worst.get)
    d_pin = graph.ffs[ff].d_pin
    u, early, late = graph.fanin[d_pin][0]
    return DelayUpdate(u, d_pin, early + 0.01, late + 0.01)


def _revalidate(options, edit) -> tuple[dict, list, dict, dict]:
    """Cache every family, apply ``edit``, re-query under a collector."""
    graph, constraints = _design()
    session = CpprEngine(TimingAnalyzer(graph, constraints),
                         options).session()
    for mode in MODES:
        session.top_paths(K, mode)
    families = session._families.entries()
    with collecting() as col:
        summary = session.update(delays=[edit])
        answers = {mode: session.top_paths(K, mode) for mode in MODES}
    return summary, families, answers, col.profile().counters


def _keys(paths):
    return [(p.slack, p.credit, p.pins, p.family, p.launch_ff,
             p.capture_ff, p.level) for p in paths]


@pytest.mark.parametrize("backend,batch", CONFIGS)
def test_off_critical_edit_keeps_filtered_families(monkeypatch, backend,
                                                   batch):
    options = CpprOptions(backend=backend, batch_levels=batch)
    graph, constraints = _design()
    edit = _off_critical_edit(TimingAnalyzer(graph, constraints))

    summary, families, answers, counters = _revalidate(options, edit)
    # The case under test: level families that popped k paths but kept
    # fewer, whose filtered list alone would read as exhausted.
    assert any(key[0] == "level" and len(value) < K == value.popped
               for key, _basis, value in families)
    assert summary["families_dropped"] == 0, summary
    assert counters["pipeline.families.kept"] == len(families)
    assert counters.get("pipeline.families.rerun", 0) == 0

    # The same session over unfiltered family lists (every pop kept, as
    # the families returned them before the pop-time filter) makes the
    # same serve-or-drop decisions.
    real = deviation.run_topk

    def keep_all(graph, arrays, seeds, k, mode, heap_capacity=None,
                 keep=None):
        return real(graph, arrays, seeds, k, mode, heap_capacity)

    monkeypatch.setattr(level_module, "run_topk", keep_all)
    monkeypatch.setattr(selfloop_module, "run_topk", keep_all)
    reference, _families, _answers, ref_counters = _revalidate(options,
                                                               edit)
    assert (summary["families_kept"], summary["families_dropped"]) == (
        reference["families_kept"], reference["families_dropped"])
    assert (counters["pipeline.families.kept"]
            == ref_counters["pipeline.families.kept"])
    monkeypatch.undo()

    edited = apply_delay_updates(graph, [edit])
    fresh = CpprEngine(TimingAnalyzer(edited, constraints), options)
    for mode in MODES:
        assert _keys(answers[mode]) == _keys(fresh.top_paths(K, mode))
