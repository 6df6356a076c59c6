"""Deviation-edge top-k path search (paper Algorithm 5 and Figure 4).

A path is represented *implicitly* by its capture pin, its excluded group,
and a list of deviation edges relative to the arrival-tuple ``from``
pointers.  Popping the current best path from a min-heap and pushing
every one-edge deviation of it enumerates paths in non-decreasing slack
order, because each deviation's cost — the arrival-time loss of entering a
node through a sub-optimal edge — is non-negative by construction of the
arrival tuples.

The heap is a stdlib :mod:`heapq` list of ``(slack, push_seq, ...)``
entries, so pops follow ``(slack, push order)`` and ties never compare
payloads.  Its live set is bounded by a threshold plus a prune: with
``remaining`` paths still to report (``capacity`` minus those reported,
``capacity`` being ``k`` unless the caller raises it), the heap is cut
to its ``remaining`` best entries whenever it reaches ``2·remaining``,
and any new entry whose slack is not below the worst key kept by the
last cut is rejected outright.  Every discarded entry has at least
``remaining`` better entries alive, so it could never be reported and
the reports equal those of an unbounded heap; the live set never
exceeds ``2·capacity`` entries, the ``O(k)`` bound behind the paper's
space-complexity theorem (see ``docs/PROOFS.md``).

The same engine serves all candidate families; grouped passes supply
:class:`~repro.cppr.propagation.DualArrivalArrays` (whose ``at_auto``
honours the excluded group) and ungrouped passes supply
:class:`~repro.cppr.propagation.SingleArrivalArrays`.  The search reads
their columns directly rather than calling ``auto()`` per pin.

A family may pass a ``keep`` test (paper Algorithm 6's responsibility
test, see :mod:`repro.cppr.select`).  The search still pops exactly
``k`` paths and expands each one as before, so the heap, the edges
explored and the tie order do not depend on it; only the popped paths
``keep`` accepts are materialized into pin lists.  The expansion walk of
a popped path follows the same ``from`` pointers as the final leg of
:func:`_materialize`, so the pin where it stops is the path's launch pin
``pins[0]``, and the test costs no extra walk.  The ``k``-th pop is not
expanded; it is materialized and tested on its first pin.

When the arrival arrays were produced by the array backend they carry a
:class:`~repro.core.propagate.FastDeviation` in their ``fast`` slot:
per-edge deviation costs precomputed in one vectorized pass over the
fanin CSR.  The expansion loop then reads a single precomputed cost per
edge — ``cost0[i]`` plus a per-pin adjustment when the popped tuple is
not the pin's primary one — and only falls back to the fallback tuple
for the rare edge whose source's primary group is the excluded group.
Both loops compute identical costs; the scalar loop is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, nsmallest
from typing import Callable

from repro.circuit.graph import TimingGraph
from repro.cppr.propagation import DualArrivalArrays, SingleArrivalArrays
from repro.cppr.tuples import NO_GROUP
from repro.cppr.types import CandidateList
from repro.exceptions import AnalysisError
from repro.obs import collector as _obs
from repro.sta.modes import AnalysisMode

__all__ = ["CaptureSeed", "SearchResult", "run_topk"]


@dataclass(frozen=True, slots=True)
class CaptureSeed:
    """The best path into one capture point (Algorithm 5 lines 3-7).

    ``group`` is the capture group to exclude (``f_{d+1}`` of the capture
    clock pin) for level passes, or ``NO_GROUP`` for ungrouped families.
    """

    slack: float
    capture_pin: int
    group: int = NO_GROUP
    capture_ff: int | None = None


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One reported path: its ranking slack and explicit pin sequence."""

    slack: float
    pins: tuple[int, ...]
    capture_pin: int
    capture_ff: int | None


def _auto_columns(arrays: DualArrivalArrays | SingleArrivalArrays
                  ) -> tuple[list, list, list | None, list | None,
                             list | None]:
    """``(time0, from0, group0, time1, from1)``, the columns of ``at_auto``.

    A grouped pass answers from the fallback tuple when the primary
    tuple's group is the excluded one; an ungrouped pass has only the
    primary tuple, so its last three columns are ``None``.
    """
    if isinstance(arrays, SingleArrivalArrays):
        return arrays.time, arrays.from_pin, None, None, None
    return (arrays.time0, arrays.from0, arrays.group0, arrays.time1,
            arrays.from1)


def _broken_chain(graph: TimingGraph, pin: int) -> AnalysisError:
    return AnalysisError(
        f"broken arrival chain at pin {graph.pin_name(pin)!r}")


def _prune(heap: list, keep: int) -> float:
    """Cut ``heap`` in place to its ``keep`` best entries.

    Returns the worst kept key, the new rejection limit.  A sorted list
    is a valid heap, so no re-heapify is needed.
    """
    heap[:] = nsmallest(keep, heap)
    return heap[-1][0]


def run_topk(graph: TimingGraph,
             arrays: DualArrivalArrays | SingleArrivalArrays,
             seeds: list[CaptureSeed], k: int, mode: AnalysisMode,
             heap_capacity: int | None = None,
             keep: Callable[[int, CaptureSeed], bool] | None = None
             ) -> CandidateList:
    """Pop up to ``k`` paths in non-decreasing ranking-slack order.

    ``seeds`` hold the best path per capture point; deviations generate
    every other path lazily.  ``heap_capacity`` is the number of entries
    a prune keeps before any path is reported, so the live heap stays
    within twice it.  It defaults to ``k`` (always sufficient; see module
    docstring) but may be raised for the unbounded-heap ablation study.

    ``keep(launch_pin, seed)`` decides which popped paths are returned;
    ``None`` keeps all of them.  The result carries the slack of the
    ``k``-th pop as its ``boundary`` and the number of pops as
    ``popped`` (see :class:`~repro.cppr.types.CandidateList`).
    """
    if k < 1:
        raise AnalysisError(f"k must be at least 1, got {k}")
    capacity = heap_capacity if heap_capacity is not None else k
    if capacity < k:
        raise AnalysisError(
            f"heap capacity {capacity} is smaller than k={k}")
    is_setup = mode.is_setup
    is_clock_pin = graph.is_clock_pin
    fanin = graph.fanin
    empty = arrays.empty
    inf = float("inf")
    columns = _auto_columns(arrays)
    time0, from0, group0, time1, from1 = columns

    # Array-backend fast path: precomputed per-edge deviation costs over
    # the fanin CSR (see module docstring).  ``None`` from the scalar
    # backend, in which case the reference loop below runs.
    fast = arrays.fast
    if fast is not None:
        fptr = fast.ptr
        fsrc = fast.src
        fdelay = fast.delay
        fcost0 = fast.cost0

    # Work counters live in locals and are reported once at the end, so
    # the disabled path costs one cheap local test per pin.
    col = _obs.ACTIVE
    counting = col is not None
    edges_explored = 0
    rejected = 0
    pruned = 0

    # Entries are (slack, push_seq, pos, devlist, seed): the unique
    # push_seq breaks slack ties in push order, so the rest of an entry
    # is never compared.
    heap: list = []
    seq = 0
    limit = inf
    remaining = capacity
    cut = 2 * remaining
    for seed in seeds:
        if seed.slack >= limit:
            rejected += 1
            continue
        seq += 1
        heappush(heap, (seed.slack, seq, seed.capture_pin, (), seed))
        if len(heap) >= cut:
            pruned += len(heap) - remaining
            limit = _prune(heap, remaining)
    seed_pushes = seq
    seed_rejects = rejected

    results = CandidateList()
    popped = 0
    while heap:
        slack, _seq, pin, devlist, origin = heappop(heap)
        group = origin.group
        popped += 1
        if popped == k:
            # The last pop is not expanded, so its launch pin comes
            # from the materialized path itself.
            results.boundary = slack
            pins = _materialize(graph, columns, empty, origin.capture_pin,
                                group, devlist)
            if keep is None or keep(pins[0], origin):
                results.append(SearchResult(slack, pins, origin.capture_pin,
                                            origin.capture_ff))
            break
        remaining = capacity - popped
        cut = 2 * remaining

        # Enumerate one-edge deviations along the path's backward walk
        # (Algorithm 5 lines 11-20).
        while True:
            if group0 is None or group0[pin] != group:
                time_here = time0[pin]
                from_pin = from0[pin]
            else:
                time_here = time1[pin]
                from_pin = from1[pin]
            if time_here == empty:  # pragma: no cover - defensive
                raise _broken_chain(graph, pin)
            if fast is not None:
                # ``cost0[i] + adj`` equals the scalar cost below: the
                # adjustment re-bases the precomputed (primary-tuple)
                # cost onto the tuple actually popped at ``pin``.
                lo = fptr[pin]
                hi = fptr[pin + 1]
                if counting:
                    edges_explored += hi - lo
                adj = (time_here - time0[pin] if is_setup
                       else time0[pin] - time_here)
                for i in range(lo, hi):
                    w = fsrc[i]
                    if w == from_pin:
                        continue
                    if group0 is None or group0[w] != group:
                        cost = fcost0[i] + adj
                        if cost == inf:
                            continue
                    else:
                        t1 = time1[w]
                        if t1 == empty:
                            continue
                        cost = (time_here - t1 - fdelay[i] if is_setup
                                else t1 + fdelay[i] - time_here)
                    key = slack + cost
                    if key >= limit:
                        rejected += 1
                        continue
                    seq += 1
                    heappush(heap, (key, seq, w, devlist + ((w, pin),),
                                    origin))
                    if len(heap) >= cut:
                        pruned += len(heap) - remaining
                        limit = _prune(heap, remaining)
            else:
                if counting:
                    edges_explored += len(fanin[pin])
                for w, delay_early, delay_late in fanin[pin]:
                    if w == from_pin:
                        continue
                    if group0 is None or group0[w] != group:
                        t_w = time0[w]
                    else:
                        t_w = time1[w]
                    if t_w == empty:
                        continue
                    if is_setup:
                        cost = time_here - t_w - delay_late
                    else:
                        cost = t_w + delay_early - time_here
                    key = slack + cost
                    if key >= limit:
                        rejected += 1
                        continue
                    seq += 1
                    heappush(heap, (key, seq, w, devlist + ((w, pin),),
                                    origin))
                    if len(heap) >= cut:
                        pruned += len(heap) - remaining
                        limit = _prune(heap, remaining)
            if from_pin < 0 or is_clock_pin[from_pin]:
                break
            pin = from_pin
        # The walk stopped at the path's launch pin.
        if keep is None or keep(pin, origin):
            results.append(SearchResult(
                slack, _materialize(graph, columns, empty,
                                    origin.capture_pin, group, devlist),
                origin.capture_pin, origin.capture_ff))

    results.popped = popped
    if counting:
        col.add("deviation.seeds", len(seeds))
        col.add("deviation.edges_explored", edges_explored)
        col.add("deviation.edges_generated",
                seq - seed_pushes + rejected - seed_rejects)
        col.add("deviation.paths_reported", popped)
        # Zero tallies are skipped so an untouched outcome never mints
        # a counter name.
        for name, count in (("heap.push", seq), ("heap.reject", rejected),
                            ("heap.prune", pruned)):
            if count:
                col.add(name, count)

    return results


def _materialize(graph: TimingGraph, columns: tuple, empty: float,
                 pin: int, group: int,
                 devlist: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Expand an implicit path into its explicit pin sequence.

    Walk backward from the capture ``pin`` following the ``at_auto``
    ``from`` pointers (``columns`` as from :func:`_auto_columns`),
    applying the deviation edges in order: deviations were appended
    sink-to-source, so the i-th deviation is the i-th departure from the
    pointer chain encountered on the walk.
    """
    time0, from0, group0, time1, from1 = columns
    is_clock_pin = graph.is_clock_pin
    pins: list[int] = []
    dev_index = 0
    num_devs = len(devlist)
    # Sink pin of the next deviation edge; -1 matches no pin.
    dev_sink = devlist[0][1] if num_devs else -1
    while True:
        pins.append(pin)
        if pin == dev_sink:
            pin = devlist[dev_index][0]
            dev_index += 1
            dev_sink = devlist[dev_index][1] if dev_index < num_devs else -1
            continue
        if group0 is None or group0[pin] != group:
            time_here = time0[pin]
            from_pin = from0[pin]
        else:
            time_here = time1[pin]
            from_pin = from1[pin]
        if time_here == empty:  # pragma: no cover - defensive
            raise _broken_chain(graph, pin)
        if from_pin < 0 or is_clock_pin[from_pin]:
            break
        pin = from_pin
    if dev_index != num_devs:  # pragma: no cover - defensive
        raise AnalysisError("unconsumed deviation edges while expanding "
                            "a path; arrival tuples are inconsistent")
    pins.reverse()
    return tuple(pins)
