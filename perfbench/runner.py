"""One benchmark run: set-up repeats, the measured loop, and its metrics.

End-to-end metrics are measured with tracing off.  A traced run
(``--trace 1``) splits the measured time in two halves, each after a
set-up of its own: the first half untraced, the second with every
layer wrapper installed (set-up included), and reports per-layer
metrics plus the overhead between the two halves.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import contextmanager, nullcontext

import hostspeed
import stats
from checks import Mismatch
from tracing import Tracer, calls, durations, install, self_times, totals

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Per-layer metrics: name -> (unit, better, what it should move).
#: Times are self seconds per set-up (``io``, ``sta``, ``get_core``) or
#: per measured unit; counts are per measured unit; ``server.*`` times
#: are per request of their kind.  The third field records, for each
#: layer metric, the end-to-end metric and workload it should move.
PER_LAYER = {
    "io.load_s": ("s", "lower", "setup_s on topk_shallow, serve_mixed"),
    "sta.build_s": ("s", "lower", "setup_s on every workload"),
    "core.get_core_s": ("s", "lower", "setup_s on every workload"),
    "core.propagate_s": ("s", "lower",
                         "unit_p50_s on topk_shallow; not topk_deep"),
    "core.propagate_calls": ("count", "lower",
                             "unit_p50_s on topk_shallow; not topk_deep"),
    "cppr.level_s": ("s", "lower", "unit_p50_s, units_per_s on topk_deep"),
    "cppr.level_calls": ("count", "lower",
                         "unit_p50_s, units_per_s on topk_deep"),
    "cppr.selfloop_s": ("s", "lower",
                        "unit_p50_s, units_per_s on topk_deep"),
    "cppr.pi_s": ("s", "lower", "unit_p50_s, units_per_s on topk_deep"),
    "cppr.select_s": ("s", "lower",
                      "unit_p50_s on topk_deep and topk_shallow"),
    "cppr.candidates": ("count", "lower",
                        "unit_p50_s, units_per_s on topk_deep"),
    "cppr.select_yield": ("ratio", "higher",
                          "unit_p50_s, units_per_s on topk_deep"),
    "cppr.deviation_edges": ("count", "lower",
                             "unit_p50_s, units_per_s on topk_deep"),
    "pipeline.update_s": ("s", "lower", "unit_tail_s on serve_mixed"),
    "pipeline.query_s": ("s", "lower", "unit_p50_s on serve_mixed"),
    "pipeline.dirty_fraction": ("ratio", "lower",
                                "unit_tail_s on serve_mixed"),
    "pipeline.families_kept_ratio": ("ratio", "higher",
                                     "unit_tail_s on serve_mixed"),
    # Stays 0 while serve_mixed's small-cone edits take the incremental
    # path; a change that loses that path shows here first.
    "pipeline.full_rebuilds": ("count", "lower",
                               "unit_tail_s on serve_mixed"),
    "server.read_s": ("s", "lower",
                      "unit_p50_s, unit_tail_s, within_slo_frac on "
                      "serve_mixed"),
    "server.update_s": ("s", "lower",
                        "unit_tail_s, within_slo_frac on serve_mixed"),
    "server.session_read_s": ("s", "lower",
                              "unit_p50_s, unit_tail_s on serve_mixed"),
    "server.handler_share": ("ratio", "higher",
                             "unit_p50_s on serve_mixed"),
    "server.non200": ("count", "lower", "within_slo_frac on serve_mixed"),
    "bench.unattributed_frac": ("ratio", "lower", "validity of the trace"),
    "bench.trace_overhead_frac": ("ratio", "lower", "validity of the trace"),
    "bench.generator_lag_s": ("s", "lower", "validity of the open loop"),
}

#: Span name behind each per-set-up time metric.
_SETUP_SPANS = {"io.load_s": "io.load", "sta.build_s": "sta.build",
                "core.get_core_s": "core.get_core"}

#: Span name behind each per-unit time metric.
_UNIT_SPANS = {"core.propagate_s": "core.propagate",
               "cppr.level_s": "cppr.level",
               "cppr.selfloop_s": "cppr.selfloop",
               "cppr.pi_s": "cppr.pi",
               "cppr.select_s": "cppr.select",
               "pipeline.update_s": "pipeline.update",
               "pipeline.query_s": "pipeline.query"}

#: Span name behind each per-request server time metric.
_REQUEST_SPANS = {"server.read_s": "server.read",
                  "server.update_s": "server.update",
                  "server.session_read_s": "server.session_read"}


class Run:
    """State of one benchmark invocation."""

    def __init__(self, seed: int, seconds: float, scale: float,
                 trace: bool, work) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.work = work
        self.tracer = Tracer() if trace else None
        self.setups: list[float] = []
        #: Latency of every completed unit of the measured phase (the
        #: traced half of a traced run).
        self.units: list[float] = []
        #: Unit latencies of the untraced half of a traced run.
        self.untraced_units: list[float] = []
        self._sink = self.units
        self.attempted = 0
        self.failed = 0
        self.meta: dict = {}
        #: Open-loop workloads set these; closed loops derive them.
        self.throughput: float | None = None
        self.within: int | None = None
        self.peak_rss_mb: float | None = None
        #: True inside a traced set-up or traced half.
        self.tracing = False
        #: Times of ``hostspeed.task`` between rounds and set-ups.
        self.host_samples: list[float] = []

    # ------------------------------------------------------------------
    @contextmanager
    def traced(self, phase: str):
        """Layer wrappers plus an obs collector, in ``phase``."""
        from repro.obs import collecting

        self.tracer.phase = phase
        with install(self.tracer), collecting() as col:
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False
                edges = col.profile().counters.get(
                    "deviation.edges_explored", 0)
                self.tracer.add("cppr.deviation_edges", edges, phase)

    @contextmanager
    def aside(self):
        """Benchmark work (checks, schedules) outside every span and
        counter of a traced half."""
        from repro.obs import collector

        if not self.tracing:
            yield
            return
        phase, self.tracer.phase = self.tracer.phase, "check"
        active, collector.ACTIVE = collector.ACTIVE, None
        try:
            yield
        finally:
            self.tracer.phase = phase
            collector.ACTIVE = active

    def unit_span(self, start: float | None = None):
        if self.tracing:
            return self.tracer.span("bench.unit", start)
        return nullcontext()

    # ------------------------------------------------------------------
    def segments(self, build, measure, teardown=None) -> None:
        """Set up and measure in turn.

        An untraced run sets up ``SETUP_REPEATS`` times and measures an
        equal share of ``seconds`` after each set-up, so its units sample
        the machine across the whole run rather than one stretch of it.
        A traced run measures an untraced half, then sets up again with
        the layer wrappers installed and measures a traced half.
        ``build()`` sees :attr:`tracing` during the traced set-up;
        ``measure(result, budget)`` runs whole rounds through
        :meth:`loop` (or records units with :meth:`record`);
        ``teardown(result)`` releases a set-up, untimed and outside
        every span.
        """
        if self.trace:
            plan = [(self.untraced_units, False, self.seconds / 2),
                    (self.units, True, self.seconds / 2)]
        else:
            plan = [(self.units, False, self.seconds / SETUP_REPEATS)
                    ] * SETUP_REPEATS
        for sink, traced, budget in plan:
            self._sink = sink
            self.time_host()
            result = self.setup(build, traced)
            try:
                with self.traced("run") if traced else nullcontext():
                    measure(result, budget)
                self.time_host()
            finally:
                if teardown is not None:
                    teardown(result)
            result = None

    def setup(self, build, traced: bool):
        """Time one set-up, ``build()``, and return its result."""
        gc.collect()
        with self.traced("setup") if traced else nullcontext():
            started = time.perf_counter()
            with self.tracer.span("bench.setup") if traced else nullcontext():
                result = build()
            self.setups.append(time.perf_counter() - started)
        return result

    def timed(self, fn, *args):
        """One measured unit: ``fn(*args)``; ``None`` when it failed."""
        self.attempted += 1
        with self.unit_span():
            started = time.perf_counter()
            try:
                result = fn(*args)
            except Mismatch:
                raise
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.failed += 1
                self.meta.setdefault("failures", []).append(repr(exc))
                return None
            elapsed = time.perf_counter() - started
        self._sink.append(elapsed)
        return result

    def time_host(self) -> None:
        """Time ``hostspeed.task`` once, outside every span."""
        with self.aside():
            self.host_samples.append(hostspeed.task())

    def record(self, latency: float | None) -> None:
        """One unit timed by the workload itself; ``None`` when it failed."""
        self.attempted += 1
        if latency is None:
            self.failed += 1
        else:
            self._sink.append(latency)

    def loop(self, one_round, budget: float) -> None:
        """Run ``one_round()`` until ``budget`` seconds of units are timed.

        ``one_round`` runs one round of units through :meth:`timed`.  The
        loop stops at the first round boundary past the budget, so every
        round's mix of units is complete.
        """
        sink, first = self._sink, len(self._sink)
        gc.collect()
        while sum(sink[first:]) < budget:
            self.time_host()
            before = (len(sink), self.failed)
            one_round()
            if (len(sink), self.failed) == before:
                raise RuntimeError("a round ran no unit")
            if len(sink) == first:
                raise RuntimeError("every unit of the first round failed")

    # ------------------------------------------------------------------
    def end_to_end(self, tail_pct: int, slo_s: float) -> dict:
        """The end-to-end metrics; times and rates at the reference host
        speed (see ``hostspeed``), the raw values in :attr:`meta`."""
        units = self.units
        throughput = (self.throughput if self.throughput is not None
                      else len(units) / sum(units))
        within = (self.within if self.within is not None
                  else sum(1 for u in units if u <= slo_s))
        rss = self.peak_rss_mb
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = {"setup_s": stats.median(self.setups),
               "units_per_s": throughput,
               "unit_p50_s": stats.median(units),
               "unit_tail_s": stats.percentile(units, tail_pct)}
        factor = hostspeed.scale(self.host_samples)
        self.meta.update(raw_metrics=raw, host_scale=factor,
                         host_samples=len(self.host_samples))
        return {
            "setup_s": (raw["setup_s"] * factor, "s"),
            "peak_rss_mb": (rss, "MB"),
            # The open loop's rate is the schedule's, not the host's.
            "units_per_s": (throughput if self.throughput is not None
                            else throughput / factor, "1/s"),
            "unit_p50_s": (raw["unit_p50_s"] * factor, "s"),
            "unit_tail_s": (raw["unit_tail_s"] * factor, "s"),
            "within_slo_frac": (within / self.attempted, "ratio"),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        selfs, ncalls = self_times(spans), calls(spans)
        spent = durations(spans)
        counts = {name: value for (phase, name), value
                  in totals(self.tracer.events).items() if phase == "run"}
        n_setup = ncalls[("setup", "bench.setup")]
        n_unit = max(1, len(self.units))

        out = {name: selfs.get(("setup", span), 0.0) / n_setup
               for name, span in _SETUP_SPANS.items()}
        out.update({name: selfs.get(("run", span), 0.0) / n_unit
                    for name, span in _UNIT_SPANS.items()})
        for name, span in _REQUEST_SPANS.items():
            n = ncalls.get(("run", span), 0)
            out[name] = selfs.get(("run", span), 0.0) / n if n else 0.0
        out["core.propagate_calls"] = (
            ncalls.get(("run", "core.propagate"), 0) / n_unit)
        out["cppr.level_calls"] = ncalls.get(("run", "cppr.level"), 0) / n_unit
        candidates = counts.get("cppr.candidates", 0)
        out["cppr.candidates"] = candidates / n_unit
        out["cppr.select_yield"] = (counts.get("cppr.selected", 0)
                                    / candidates if candidates else 0.0)
        out["cppr.deviation_edges"] = (counts.get("cppr.deviation_edges", 0)
                                       / n_unit)
        kept = counts.get("pipeline.families_kept", 0)
        dropped = counts.get("pipeline.families_dropped", 0)
        updates = counts.get("pipeline.updates", 0)
        out["pipeline.dirty_fraction"] = (
            counts.get("pipeline.dirty_fraction", 0.0) / updates
            if updates else 0.0)
        out["pipeline.families_kept_ratio"] = (
            kept / (kept + dropped) if kept + dropped else 0.0)
        out["pipeline.full_rebuilds"] = counts.get("pipeline.full_rebuilds",
                                                   0)
        client = sum(spent.get(("run", span), 0.0)
                     for span in _REQUEST_SPANS.values())
        out["server.handler_share"] = (
            spent.get(("run", "server.handle"), 0.0) / client
            if client else 0.0)
        out["server.non200"] = counts.get("server.non200", 0)
        waits = ncalls.get(("run", "bench.wait"), 0)
        out["bench.generator_lag_s"] = (
            spent.get(("run", "bench.wait"), 0.0) / waits if waits else 0.0)

        unit_total = spent.get(("run", "bench.unit"), 0.0)
        out["bench.unattributed_frac"] = (
            selfs.get(("run", "bench.unit"), 0.0) / unit_total
            if unit_total else 0.0)
        out["bench.trace_overhead_frac"] = (
            stats.median(self.units) / stats.median(self.untraced_units) - 1)
        return {name: (value, PER_LAYER[name][0])
                for name, value in out.items()}

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the work count ``name`` (traced half only)."""
        if self.tracing:
            self.tracer.add(name, amount)

    def record_update(self, summary: dict) -> None:
        """Tally one ``CpprSession.update`` summary (traced half only)."""
        if self.tracing:
            tracer = self.tracer
            tracer.add("pipeline.updates")
            tracer.add("pipeline.dirty_fraction", summary["dirty_fraction"])
            tracer.add("pipeline.families_kept", summary["families_kept"])
            tracer.add("pipeline.families_dropped",
                       summary["families_dropped"])
            tracer.add("pipeline.full_rebuilds",
                       int(summary["full_rebuild"]))
