"""Ablation benchmarks for this implementation's own design choices.

* **A2 — bounded search heap**: Algorithm 5 keeps at most ``2k`` live
  paths by rejecting entries past a threshold and pruning the heap to
  its best ``remaining`` entries; disabling the bound (a huge capacity)
  shows the memory the bound saves without changing results.
* **A3 — binary lifting**: ``f_d(u)``/LCA queries via the precomputed
  tables versus naive parent-walking.
* **A4 — level parallelism**: serial versus process executor at a fixed
  worker count (the mechanism behind Figure 6).
"""

from __future__ import annotations

import random

import pytest

from harness import get_analyzer
from repro import CpprEngine, CpprOptions
from repro.cppr.parallel import available_executors
from repro.ds.binary_lifting import AncestorTable
from repro.utils.measure import measure_memory

K = 200


class TestBoundedHeapAblation:
    @pytest.mark.parametrize("capacity", ["bounded", "unbounded"],
                             ids=["heap-bounded-k", "heap-unbounded"])
    def test_runtime(self, benchmark, capacity):
        analyzer = get_analyzer("combo4v2")
        options = (CpprOptions() if capacity == "bounded"
                   else CpprOptions(heap_capacity=1_000_000))
        engine = CpprEngine(analyzer, options)
        slacks = benchmark.pedantic(lambda: engine.top_slacks(K, "setup"),
                                    rounds=1, iterations=1)
        assert len(slacks) == K

    def test_bounded_heap_saves_memory_without_changing_results(self):
        analyzer = get_analyzer("combo4v2")
        bounded = CpprEngine(analyzer)
        unbounded = CpprEngine(analyzer,
                               CpprOptions(heap_capacity=1_000_000))
        bounded_run = measure_memory(
            lambda: bounded.top_slacks(K, "setup"))
        unbounded_run = measure_memory(
            lambda: unbounded.top_slacks(K, "setup"))
        assert bounded_run.value == pytest.approx(unbounded_run.value)
        assert bounded_run.peak_mib < unbounded_run.peak_mib


class TestBinaryLiftingAblation:
    @staticmethod
    def _tree(depth=64, width=512, seed=3):
        rng = random.Random(seed)
        parents = [-1]
        for level in range(1, depth):
            start = len(parents)
            for _ in range(max(2, width // depth)):
                parents.append(rng.randrange(max(0, start - 8), start))
        return parents

    def test_binary_lifting_queries(self, benchmark):
        parents = self._tree()
        table = AncestorTable(parents)
        n = len(parents)
        rng = random.Random(7)
        queries = [(rng.randrange(n), rng.randrange(n))
                   for _ in range(5000)]

        def run():
            return sum(table.lca(u, v) for u, v in queries)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_naive_parent_walk_queries(self, benchmark):
        parents = self._tree()
        n = len(parents)
        rng = random.Random(7)
        queries = [(rng.randrange(n), rng.randrange(n))
                   for _ in range(5000)]

        def naive_lca(u, v):
            ancestors = set()
            while u != -1:
                ancestors.add(u)
                u = parents[u]
            while v not in ancestors:
                v = parents[v]
            return v

        def run():
            return sum(naive_lca(u, v) for u, v in queries)

        benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.skipif("process" not in available_executors(),
                    reason="needs fork")
class TestParallelAblation:
    @pytest.mark.parametrize("mode", ["serial", "process-4"])
    def test_executor(self, benchmark, mode):
        analyzer = get_analyzer("leon2")
        options = (CpprOptions() if mode == "serial"
                   else CpprOptions(executor="process", workers=4))
        engine = CpprEngine(analyzer, options)
        slacks = benchmark.pedantic(lambda: engine.top_slacks(K, "setup"),
                                    rounds=1, iterations=1)
        assert len(slacks) == K


class TestVectorizedPropagationAblation:
    """A5 — numpy-vectorized STA arrival propagation (the paper's
    GPU-future-work direction, in Python terms)."""

    @pytest.mark.parametrize("variant", ["scalar", "vectorized"])
    def test_arrival_propagation(self, benchmark, variant):
        from repro.sta.arrival import propagate_arrivals
        from repro.sta.vectorized import propagate_arrivals_vectorized
        analyzer = get_analyzer("leon2")
        graph = analyzer.graph
        propagate_arrivals_vectorized(graph)  # warm the level cache
        fn = (propagate_arrivals if variant == "scalar"
              else propagate_arrivals_vectorized)
        benchmark.pedantic(lambda: fn(graph), rounds=3, iterations=1)
