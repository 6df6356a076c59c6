"""Seeded suite designs written to files for the program to load.

The workload seed shifts the generator seed of every ``SUITE_SPECS``
entry while keeping its shape (flip-flops, gates, clock depth, layers,
channels, mixing, jitter), so each seed gives fresh instances of the same
design family.  Seed 0, instance 0 reproduces the suite's own design.

Beside each design the child writes its reference answer,
``checks.reference_slacks`` at the workload's ``k``, as
``NAME-I.ref.json``.

Generation runs in a child process so that neither its time nor its
memory is charged to the measured process::

    python perfbench/designs.py OUTDIR SEED SCALE K NAME:COUNT [NAME:COUNT ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Generator-seed step between design instances.
SEED_STRIDE = 100_003
#: Instances a workload seed may draw per design (seed s owns instance
#: numbers s * MAX_INSTANCES onwards, so seeds never share a design).
MAX_INSTANCES = 16


def _generate(outdir: Path, seed: int, scale: float, k: int,
              counts: dict[str, int]) -> None:
    from checks import reference_slacks
    from repro import TimingAnalyzer
    from repro.io import save_design
    from repro.workloads import suite

    for name, count in counts.items():
        spec = suite.SUITE_SPECS[name]
        for instance in range(count):
            shift = SEED_STRIDE * (seed * MAX_INSTANCES + instance)
            suite.SUITE_SPECS[name] = spec[:-1] + (spec[-1] + shift,)
            try:
                graph, constraints = suite.build_design(name, scale=scale)
            finally:
                suite.SUITE_SPECS[name] = spec
            path = outdir / f"{name}-{instance}.cppr"
            save_design(graph, constraints, path)
            reference = reference_slacks(TimingAnalyzer(graph, constraints),
                                         k)
            path.with_suffix(".ref.json").write_text(json.dumps(reference))


def generate(outdir: Path, seed: int, scale: float, k: int,
             counts: dict[str, int]) -> dict[tuple[str, int], Path]:
    """Write ``counts[name]`` instances of each design under ``outdir``,
    each with its reference top-``k`` slacks (see :func:`reference`).

    Returns ``(name, instance) -> path``.
    """
    if any(not 0 < count <= MAX_INSTANCES for count in counts.values()):
        raise ValueError(f"instance counts must be 1..{MAX_INSTANCES}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    str(outdir), str(seed), repr(scale), str(k),
                    *(f"{name}:{count}" for name, count in counts.items())],
                   env=env, check=True, timeout=600)
    return {(name, instance): outdir / f"{name}-{instance}.cppr"
            for name, count in counts.items() for instance in range(count)}


def reference(path: Path) -> dict[str, list[float]]:
    """The reference slacks written beside the design file ``path``."""
    return json.loads(path.with_suffix(".ref.json").read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _generate(Path(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]),
              int(sys.argv[4]),
              {name: int(count) for name, count
               in (arg.split(":") for arg in sys.argv[5:])})
