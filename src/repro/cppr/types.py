"""Path datatypes shared by the CPPR engine, baselines, and reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sta.modes import AnalysisMode

__all__ = ["CandidateList", "PathFamily", "TimingPath"]


class PathFamily(enum.Enum):
    """Which candidate family (paper Definitions 4-6) a path came from.

    ``LEVEL`` paths carry the clock-tree level ``d`` they were generated
    at; after selection that level equals the depth of the launch/capture
    LCA.  ``OUTPUT`` is this library's extension for paths captured at
    constrained primary outputs (no pessimism to remove, like ``PI``).
    """

    LEVEL = "level"
    SELF_LOOP = "self_loop"
    PRIMARY_INPUT = "primary_input"
    OUTPUT = "output"


@dataclass(frozen=True, slots=True)
class TimingPath:
    """One data path with its (possibly pessimism-removed) slack.

    Attributes
    ----------
    mode:
        Setup or hold.
    family:
        The candidate family that produced the path.
    slack:
        The family's ranking metric.  For paths returned by
        ``CpprEngine.top_paths`` this is the exact post-CPPR slack of
        Equation (2); for raw level-``d`` candidates it is the
        d-pessimism-removed slack of Definition 3.
    credit:
        The CPPR credit folded into ``slack``; zero for PI/OUTPUT paths.
        For selected paths this equals ``credit(LCA(lauFF, capFF))``.
    pins:
        The pin sequence from the launch point (FF Q pin or primary
        input) to the capture point (FF D pin or primary output).  Launch
        clock pins are not part of the sequence; use ``launch_ff``.
    launch_ff / capture_ff:
        Flip-flop indices, or ``None`` for primary input/output ends.
    level:
        For ``LEVEL`` candidates, the clock-tree level ``d``.
    """

    mode: AnalysisMode
    family: PathFamily
    slack: float
    credit: float
    pins: tuple[int, ...]
    launch_ff: int | None
    capture_ff: int | None
    level: int | None = None

    @property
    def launch_pin(self) -> int:
        return self.pins[0]

    @property
    def capture_pin(self) -> int:
        return self.pins[-1]

    @property
    def pre_cppr_slack(self) -> float:
        """Slack before pessimism removal: ``slack - credit``."""
        return self.slack - self.credit

    @property
    def is_self_loop(self) -> bool:
        return (self.launch_ff is not None
                and self.launch_ff == self.capture_ff)

    def key(self) -> tuple[float, tuple[int, ...]]:
        """Deterministic sort key: slack first, then the pin sequence."""
        return (self.slack, self.pins)


class CandidateList(list):
    """The paths one top-``k`` search kept, plus where the search stopped.

    A family's search pops up to ``k`` paths but keeps only those the
    family is responsible for (paper Algorithm 6, applied at pop time),
    so the list alone does not tell how far the search reached.

    Attributes
    ----------
    boundary:
        The ranking slack of the ``k``-th popped path, or ``inf`` when
        the search popped fewer than ``k``.  No path the search did not
        pop ranks strictly below it, which is what an incremental
        session needs to prove a cached family still exact.
    popped:
        How many paths the search popped; ``popped - len(self)`` were
        dropped by the family's responsibility test.

    A plain ``list`` subclass, so it compares, iterates and pickles like
    one; the attributes ride along through the process executor.
    """

    def __init__(self, paths=(), boundary: float = float("inf"),
                 popped: int | None = None) -> None:
        super().__init__(paths)
        self.boundary = boundary
        self.popped = len(self) if popped is None else popped
