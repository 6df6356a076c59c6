"""Core data structures used by the CPPR engine and its substrates.

This package contains from-scratch implementations of the data structures
the paper relies on:

* :class:`~repro.ds.binary_lifting.AncestorTable` — binary-lifting ancestor
  and LCA queries over the clock tree (``f_d(u)`` and ``LCA(u, v)`` from the
  paper's Table I).
* :mod:`~repro.ds.topo` — topological ordering of the pin-level DAG, which
  drives every arrival-time propagation.
* :class:`~repro.ds.bounded.TopK` — a bounded best-``k`` collector used by
  the baseline timers and by ``selectTopPaths``.
"""

from repro.ds.binary_lifting import AncestorTable
from repro.ds.bounded import TopK
from repro.ds.topo import CycleError, longest_path_levels, topological_order

__all__ = [
    "AncestorTable",
    "CycleError",
    "TopK",
    "longest_path_levels",
    "topological_order",
]
