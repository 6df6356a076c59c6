"""The sign-off workloads: setup+hold top-k queries on fresh engines.

``topk_deep`` asks for the top 500 on leon2 and vga_lcdv2, where the
deviation search is most of the query; ``topk_shallow`` asks for the
top 1 round-robin over all eight suite designs, where propagation,
per-level fixed cost and select dominate.  A unit is one setup+hold
pair; ``clear_cache()`` before each pair makes every pair a full
analysis.
"""

from __future__ import annotations

import designs
from checks import check_topk

#: Design instances per design.  One k=500 pair takes seconds, so a
#: topk_deep run holds only a few; spreading them over two leon2
#: instances averages out instance-to-instance cost variation, and two
#: leon2 pairs per vga_lcdv2 pair keep the median unit a leon2 pair
#: rather than the gap between the designs.
DEEP = {"leon2": 2, "vga_lcdv2": 1}
#: All eight suite designs, leon2 twice: with nine units per round the
#: median falls inside one design's cluster (combo6v2) and p90 inside
#: leon2's, instead of on the gap between two designs.
SHALLOW = {"vga_lcdv2": 1, "combo4v2": 1, "combo5v2": 1, "combo6v2": 1,
           "combo7v2": 1, "netcard": 1, "leon2": 2, "leon3mp": 1}


def _pair(engine, k: int):
    return engine.top_paths(k, "setup"), engine.top_paths(k, "hold")


def deep(run) -> None:
    _run(run, DEEP, 500)


def shallow(run) -> None:
    _run(run, SHALLOW, 1)


def _run(run, counts: dict[str, int], k: int) -> None:
    import repro.io
    from repro import CpprEngine, CpprOptions, TimingAnalyzer

    files = designs.generate(run.work, run.seed, run.scale, k, counts)
    # Round-robin order: every design's first instance, then the second...
    keys = sorted(files, key=lambda key: (key[1], list(counts).index(key[0])))
    references = [designs.reference(files[key]) for key in keys]

    def build():
        engines = []
        for key in keys:
            graph, constraints = repro.io.load_design(files[key])
            analyzer = TimingAnalyzer(graph, constraints)
            analyzer.arrivals
            engine = CpprEngine(analyzer, CpprOptions(executor="serial"))
            _pair(engine, 1)
            engines.append(engine)
        return engines

    def measure(engines, budget):
        def one_round():
            for engine, reference in zip(engines, references):
                engine.clear_cache()
                answer = run.timed(_pair, engine, k)
                if answer is not None:
                    with run.aside():
                        for mode, paths in zip(("setup", "hold"), answer):
                            check_topk(engine.analyzer,
                                       [(p.slack, p.pins) for p in paths],
                                       k, mode, reference)

        run.meta["profile_meta"] = engines[0].profile_meta()
        run.meta["designs"] = {
            f"{name}-{instance}": engine.analyzer.graph.num_pins
            for (name, instance), engine in zip(keys, engines)}
        run.loop(one_round, budget)

    run.segments(build, measure)
