"""Slack lower bounds for edit-crossing paths (family-serve proofs).

After a delay edit whose cone never touched a family's arrival state,
the only way the family's cached top-``k`` could differ from a re-run
is through a path that *crosses an edited edge*: every other heap entry
of the deviation search is bit-identical (same seeds, same state, same
costs).  This module computes, per state row, a lower bound ``sigma``
on the ranking slack of **any** path through **any** edited run —
under both the old and the new delays — via one backward min-sweep:

* setup: ``R[x] = min`` over captures/paths of ``cap(c) - dist_late(x
  -> c)`` seeded with ``cap = at_early + period - t_setup`` at each
  participating capture D pin and relaxed backward with
  ``R[u] = min(R[u], R[v] - late(u, v))``; then for an edited run
  ``u -> v``, ``sigma = R[v] - pess_late(run) - T[u]`` with ``T`` the
  row's most pessimistic arrival at ``u`` (old and new).
* hold: the mirror image with ``G`` seeded ``-(at_late + t_hold)``,
  relaxed ``G[u] = min(G[u], early(u, v) + G[v])``, and
  ``sigma = T[u] + pess_early(run) + G[v]``.

``pess`` pessimizes each edited run over every delay value it held
during the update batch (old and new), so ``sigma`` bounds the cached
run and the hypothetical re-run simultaneously.  A cached family whose
state rows are untouched is then served iff ``sigma`` strictly exceeds
the slack of its search's k-th pop (its *boundary*,
``CandidateList.boundary``) — every edit-crossing heap entry in either
run keys above the boundary, so the first ``k`` pops (and their
tie-break counters, which only order the identical below-boundary
entries relative to one another) cannot differ.  A family whose search
popped fewer than ``k`` paths has an infinite boundary and is served
only when ``sigma`` is itself infinite (no edited run reaches any
capture in the row at all).

The returned bounds shave a relative epsilon (:data:`SIGMA_SLOP`) so
floating-point rounding along a telescoped path sum can never push a
real edit-crossing path below a bound that claims strictness.
"""

from __future__ import annotations

from repro.circuit.graph import TimingGraph
from repro.cppr.grouping import group_for_level
from repro.pipeline.state import ModeState

__all__ = ["SIGMA_SLOP", "sigma_min"]

_INF = float("inf")

#: Relative safety margin subtracted from every finite bound.
SIGMA_SLOP = 1e-9


def _capture_constants(graph: TimingGraph, is_setup: bool,
                       clock_period: float) -> dict[int, float]:
    """``{d_pin: seed}`` over all flip-flops (the ungrouped rows)."""
    tree = graph.clock_tree
    caps: dict[int, float] = {}
    for ff in graph.ffs:
        if is_setup:
            caps[ff.d_pin] = (tree.at_early(ff.tree_node) + clock_period
                              - ff.t_setup)
        else:
            caps[ff.d_pin] = -(tree.at_late(ff.tree_node) + ff.t_hold)
    return caps


def _row_caps(graph: TimingGraph, state: ModeState, rows: list[int],
              clock_period: float, backend: str) -> list[dict[int, float]]:
    """Per requested row, the capture seeds it participates in."""
    is_setup = state.mode.is_setup
    all_caps = _capture_constants(graph, is_setup, clock_period)
    tree = graph.clock_tree
    num_levels = len(state.levels)
    per_row = []
    for row in rows:
        if row < num_levels:
            grouping = group_for_level(tree, row, graph.num_ffs, backend)
            per_row.append({ff.d_pin: all_caps[ff.d_pin]
                            for ff in graph.ffs
                            if grouping.participates(ff.index)})
        else:
            per_row.append(all_caps)
    return per_row


def _evaluate(state: ModeState, rows: list[int], reach, runs,
              old_times: list[dict[int, float]],
              is_setup: bool) -> dict[int, float]:
    """Fold the sweep results into one ``sigma`` per requested row.

    ``reach(i, v)`` is row ``i``'s ``R``/``G`` value at pin ``v``.
    """
    num_levels = len(state.levels)
    result: dict[int, float] = {}
    for i, row in enumerate(rows):
        state_row = state.row(row)
        time = (state_row.time0 if row < num_levels else state_row.time)
        olds = old_times[row]
        sigma = _INF
        for u, v, pess in runs:
            r = reach(i, v)
            if r == _INF:
                continue
            t = time[u]
            old = olds.get(u)
            if old is not None:
                t = max(t, old) if is_setup else min(t, old)
            if t == (-_INF if is_setup else _INF):
                continue
            s = (r - pess) - t if is_setup else (t + pess) + r
            if s < sigma:
                sigma = s
        if sigma != _INF:
            sigma -= SIGMA_SLOP * max(1.0, abs(sigma))
        result[row] = sigma
    return result


def sigma_min(graph: TimingGraph, core, state: ModeState,
              rows: list[int],
              runs: list[tuple[int, int, float]],
              old_times: list[dict[int, float]],
              clock_period: float, substrate: str) -> dict[int, float]:
    """Per requested row, the min ``sigma`` over all edited runs.

    ``runs`` holds ``(u, v, pess)`` with ``pess`` already pessimized
    over every value the run held during the batch (late-max for setup,
    early-min for hold).  ``old_times`` is :func:`~repro.pipeline.state
    .replay`'s per-row pre-edit primary times.  Rows a run cannot reach
    (or with no arrival at any edited source) get ``+inf`` — served
    even against an exhausted family's infinite boundary.
    """
    if not rows or not runs:
        return {row: _INF for row in rows}
    is_setup = state.mode.is_setup
    backend = "array" if substrate == "array" else "scalar"
    caps_per_row = _row_caps(graph, state, rows, clock_period, backend)

    if substrate == "array" and core is not None:
        reach = _sweep_numpy(core, rows, caps_per_row, runs, is_setup)
    else:
        reach = _sweep_python(graph, rows, caps_per_row, runs, is_setup)
    return _evaluate(state, rows, reach, runs, old_times, is_setup)


def _sweep_numpy(core, rows, caps_per_row, runs, is_setup):
    import numpy as np

    structure = core.structure
    n = structure.num_pins
    pess_col = (core.edge_late if is_setup else core.edge_early).astype(
        np.float64, copy=True)
    for u, v, pess in runs:
        lo, hi = structure.edge_run(u, v)
        pess_col[lo:hi] = pess

    reach = np.full((len(rows), n), _INF)
    for i, caps in enumerate(caps_per_row):
        for pin, cap in caps.items():
            if cap < reach[i, pin]:
                reach[i, pin] = cap

    for positions, sstarts, ssrc, dst_by_src in (
            structure.backward_geometry()):
        if is_setup:
            cand = reach[:, dst_by_src] - pess_col[positions]
        else:
            cand = pess_col[positions] + reach[:, dst_by_src]
        red = np.minimum.reduceat(cand, sstarts, axis=1)
        reach[:, ssrc] = np.minimum(reach[:, ssrc], red)

    def lookup(i: int, v: int) -> float:
        return float(reach[i, v])

    return lookup


def _sweep_python(graph: TimingGraph, rows, caps_per_row, runs, is_setup):
    overrides = {(u, v): pess for u, v, pess in runs}
    fanout = graph.fanout
    order = list(reversed(graph.topo_order))
    matrices = []
    for caps in caps_per_row:
        reach = [_INF] * graph.num_pins
        for pin, cap in caps.items():
            if cap < reach[pin]:
                reach[pin] = cap
        for u in order:
            best = reach[u]
            for v, delay_early, delay_late in fanout[u]:
                rv = reach[v]
                if rv == _INF:
                    continue
                delay = overrides.get((u, v))
                if delay is None:
                    delay = delay_late if is_setup else delay_early
                cand = rv - delay if is_setup else delay + rv
                if cand < best:
                    best = cand
            reach[u] = best
        matrices.append(reach)

    def lookup(i: int, v: int) -> float:
        return matrices[i][v]

    return lookup
