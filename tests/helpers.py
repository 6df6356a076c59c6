"""Shared circuit builders and comparison helpers for the test suite."""

from __future__ import annotations

import random

from repro import (CpprEngine, ExhaustiveTimer, Netlist, TimingAnalyzer,
                   TimingConstraints, TimingGraph)
from repro.workloads import suggest_clock_period
from repro.workloads.random_circuit import RandomDesignSpec, random_design

TOL = 1e-9


def demo_netlist() -> Netlist:
    """A 4-FF, 3-gate design with a 2-level clock tree and one PI.

    Exercises every candidate family: FF-to-FF paths across both clock
    subtrees (LCA at the root and at depth 1), a feedback loop
    (ff2 -> g3 -> ff1 -> g1 -> ff2), and a primary-input path.
    """
    netlist = Netlist("demo")
    netlist.set_clock_root("clk")
    netlist.add_clock_buffer("b1", "clk", 1.0, 1.5)
    netlist.add_clock_buffer("b2", "clk", 1.0, 1.2)
    for name, parent in [("ff1", "b1"), ("ff2", "b1"),
                         ("ff3", "b2"), ("ff4", "b2")]:
        netlist.add_flipflop(name, t_setup=0.2, t_hold=0.1,
                             clk_to_q=(0.2, 0.3))
        netlist.connect_clock(name, parent, 0.5, 0.8)
    netlist.add_gate("g1", 2, [(1.0, 2.0), (0.5, 1.0)])
    netlist.connect("ff1/Q", "g1/A0", 0.1, 0.2)
    netlist.connect("ff3/Q", "g1/A1", 0.1, 0.2)
    netlist.connect("g1/Y", "ff2/D", 0.1, 0.3)
    netlist.add_gate("g2", 1, [(0.7, 0.9)])
    netlist.connect("g1/Y", "g2/A0", 0.0, 0.1)
    netlist.connect("g2/Y", "ff4/D", 0.1, 0.2)
    netlist.add_primary_input("in0", 0.0, 0.5)
    netlist.add_gate("g3", 2, [(0.3, 0.4), (0.3, 0.5)])
    netlist.connect("in0", "g3/A0")
    netlist.connect("ff2/Q", "g3/A1", 0.05, 0.1)
    netlist.connect("g3/Y", "ff1/D", 0.1, 0.2)
    netlist.add_primary_output("out0", rat_early=0.0, rat_late=20.0)
    netlist.connect("g2/Y", "out0", 0.1, 0.2)
    return netlist


def demo_design() -> tuple[TimingGraph, TimingConstraints]:
    return demo_netlist().elaborate(), TimingConstraints(6.0)


def demo_analyzer() -> TimingAnalyzer:
    graph, constraints = demo_design()
    return TimingAnalyzer(graph, constraints)


def two_ff_design(launch_delays=(0.5, 0.8), capture_delays=(0.5, 0.6),
                  data_delays=(1.0, 2.0), period=6.0,
                  t_setup=0.2, t_hold=0.1, clk_to_q=(0.2, 0.3),
                  shared_delays=(1.0, 1.5)
                  ) -> tuple[TimingGraph, TimingConstraints]:
    """Minimal two-FF design: clk -> buf -> {ffa, ffb}, ffa -> g -> ffb."""
    netlist = Netlist("two_ff")
    netlist.set_clock_root("clk")
    netlist.add_clock_buffer("buf", "clk", *shared_delays)
    netlist.add_flipflop("ffa", t_setup, t_hold, clk_to_q)
    netlist.add_flipflop("ffb", t_setup, t_hold, clk_to_q)
    netlist.connect_clock("ffa", "buf", *launch_delays)
    netlist.connect_clock("ffb", "buf", *capture_delays)
    netlist.add_gate("g", 1, [data_delays])
    netlist.connect("ffa/Q", "g/A0", 0.0, 0.0)
    netlist.connect("g/Y", "ffb/D", 0.0, 0.0)
    return netlist.elaborate(), TimingConstraints(period)


def random_small(seed: int, **overrides
                 ) -> tuple[TimingGraph, TimingConstraints]:
    """A small random design suitable for the exhaustive oracle."""
    params = dict(name=f"rand{seed}", seed=seed, num_ffs=6, num_gates=12,
                  num_pis=2, num_pos=2, clock_depth=3, global_mix=0.5,
                  recent_window=6)
    params.update(overrides)
    graph = random_design(RandomDesignSpec(**params))
    period = suggest_clock_period(graph, utilization=0.9)
    return graph, TimingConstraints(period)


def quantized_design(seed: int, num_ffs: int = 8, num_gates: int = 20
                     ) -> tuple[TimingGraph, TimingConstraints]:
    """A small random design whose delays sit on a coarse 0.25 grid.

    Every delay is a small multiple of 0.25, so all arrival sums are
    exact in binary floating point and many distinct paths share the
    very same slack: the tie-heavy regime in which report order is set
    only by the engine's tie-breaking, not by the delays.
    """
    rng = random.Random(seed)

    def delays(lo: int = 1) -> tuple[float, float]:
        early = 0.25 * rng.randint(lo, 4)
        return early, early + 0.25 * rng.randint(0, 2)

    netlist = Netlist(f"quantized{seed}")
    netlist.set_clock_root("clk")
    for top in ("c0", "c1"):
        netlist.add_clock_buffer(top, "clk", *delays())
        for leaf in ("a", "b"):
            netlist.add_clock_buffer(top + leaf, top, *delays())
    leaves = ["c0a", "c0b", "c1a", "c1b"]
    pool = [netlist.add_primary_input("in0", 0.0, 0.5)]
    ff_names = [f"ff{i}" for i in range(num_ffs)]
    for i, name in enumerate(ff_names):
        netlist.add_flipflop(name, t_setup=0.25, t_hold=0.25,
                             clk_to_q=(0.25, 0.5))
        netlist.connect_clock(name, leaves[i % len(leaves)], *delays())
        pool.append(f"{name}/Q")
    for i in range(num_gates):
        # Mostly recent drivers: deep reconvergent cones, many paths.
        window = pool[-6:] if rng.random() < 0.7 else pool
        drivers = rng.sample(window, min(len(window), rng.randint(1, 3)))
        gate = netlist.add_gate(f"g{i}", len(drivers),
                                [delays() for _ in drivers])
        for index, driver in enumerate(drivers):
            netlist.connect(driver, gate.input_pin(index), *delays(0))
        pool.append(gate.output_pin)
    for name in ff_names:
        driver = pool[rng.randrange(len(pool) // 2, len(pool))]
        netlist.connect(driver, f"{name}/D", *delays(0))
    graph = netlist.elaborate()
    period = 0.25 * max(1, round(4 * suggest_clock_period(graph, 0.9)))
    return graph, TimingConstraints(period)


def oracle_slacks(analyzer: TimingAnalyzer, k: int, mode) -> list[float]:
    return ExhaustiveTimer(analyzer).top_slacks(k, mode)


def engine_slacks(analyzer: TimingAnalyzer, k: int, mode,
                  **options) -> list[float]:
    engine = CpprEngine(analyzer)
    if options:
        engine = engine.with_options(**options)
    return engine.top_slacks(k, mode)


def assert_slacks_equal(got: list[float], want: list[float],
                        tol: float = TOL) -> None:
    assert len(got) == len(want), (
        f"path count mismatch: got {len(got)}, want {len(want)}\n"
        f"got={got}\nwant={want}")
    for i, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= tol, (
            f"slack {i} mismatch: got {a}, want {b}\n"
            f"got={got}\nwant={want}")


def path_names(graph: TimingGraph, path) -> list[str]:
    return [graph.pin_name(p) for p in path.pins]
