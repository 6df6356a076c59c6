"""Tie order is deterministic on purpose, not by accident.

On :func:`tests.helpers.quantized_design` many distinct paths share the
same slack, so a report's order inside a tie is set only by the search's
tie-breaking.  Every backend and executor must produce the same
``(slack, pins)`` list, the slacks must equal the exhaustive oracle's,
and the lists are pinned by digest so a change to the search's heap
cannot silently reorder tied paths.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import CpprEngine, CpprOptions, ExhaustiveTimer, TimingAnalyzer
from repro.core import HAVE_NUMPY
from tests.helpers import quantized_design

K = (5, 40)

CONFIGS = [("scalar", "off"), ("array", "off"), ("array", "on")]
EXECUTORS = ["serial", "thread", "process"]

#: sha256 prefixes of ``repr([(slack, pins), ...])`` per (seed, mode, k).
PINNED = {
    (1, "setup", 5): "df272b6ab91cf8c2",
    (1, "setup", 40): "7c3bbff643aee6c4",
    (1, "hold", 5): "7e333bd63e199f1c",
    (1, "hold", 40): "6652fd327034da7b",
    (2, "setup", 5): "54e7ca489e7ac4c2",
    (2, "setup", 40): "2c5f68388d376a6d",
    (2, "hold", 5): "a347cfaa8867bc0f",
    (2, "hold", 40): "f42476e3f500b6af",
    (5, "setup", 5): "38614e997646ca42",
    (5, "setup", 40): "dbad06068f5ef355",
    (5, "hold", 5): "db3c890ecea48c8c",
    (5, "hold", 40): "a1bd263dc0222435",
}


def _fingerprint(paths):
    return [(p.slack, tuple(p.pins)) for p in paths]


def _digest(fingerprint):
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode", ["setup", "hold"])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_tied_reports_identical_everywhere(seed, mode):
    analyzer = TimingAnalyzer(*quantized_design(seed))
    oracle = ExhaustiveTimer(analyzer)
    for k in K:
        reference = _fingerprint(CpprEngine(analyzer, CpprOptions(
            backend="scalar")).top_paths(k, mode))
        slacks = [slack for slack, _pins in reference]
        if k == max(K):
            assert len(set(slacks)) < len(slacks) // 2, "must be tie-heavy"
        assert slacks == oracle.top_slacks(k, mode)
        assert _digest(reference) == PINNED[seed, mode, k]
        for backend, batch in CONFIGS:
            if backend == "array" and not HAVE_NUMPY:
                continue
            for executor in EXECUTORS:
                engine = CpprEngine(analyzer, CpprOptions(
                    backend=backend, batch_levels=batch,
                    executor=executor, workers=2))
                got = _fingerprint(engine.top_paths(k, mode))
                assert got == reference, (backend, batch, executor, k)
