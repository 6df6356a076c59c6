"""The repository's benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Designs are generated from ``--seed``
into a scratch directory, loaded by the program, and every answer is
checked (see ``checks.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the run's context (machine,
versions, sample counts, the tail percentile).  A wrong answer prints
``"correct": false`` and exits 1.

Every workload runs single-process on the serial executor with no
corners.  Every process the run starts, the program's own helpers
included, has ended before it exits (see ``children.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: name -> (module, entry, tail percentile, latency limit in s, what one
#: unit is).  The tail is fixed per workload and recorded with every
#: result.  It is p90, which keeps at least ten samples beyond it at
#: each workload's sample count; higher percentiles of the open loop
#: swing with the Poisson draw by more than the bound from seed to
#: seed.  topk_deep's few units support no tail, so it reports the
#: slowest unit.
WORKLOADS = {
    "topk_deep": ("topk", "deep", 100, 10.0,
                  "setup+hold top-500 pair on one of 2 leon2 instances "
                  "or on vga_lcdv2"),
    "topk_shallow": ("topk", "shallow", 90, 1.0,
                     "setup+hold top-1 pair on one of the 8 suite designs "
                     "(2 leon2 instances)"),
    "serve_mixed": ("serve", "run_serve", 90, 0.1,
                    "one HTTP request, timed from its due time"),
}


def _context(run, workload: str, tail_pct: int, slo_s: float,
             unit: str) -> dict:
    import numpy

    import stats

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"workload": workload, "seed": run.seed,
            "seconds": run.seconds, "scale": run.scale,
            "trace": int(run.trace),
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "unit": unit, "samples": len(run.units),
            "untraced_samples": len(run.untraced_units),
            "setups_s": run.setups, "tail_percentile": tail_pct,
            "tail_rule_percentile": stats.tail_percentile(len(run.units)),
            "slo_s": slo_s,
            "error_frac": run.failed / max(1, run.attempted),
            **run.meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="suite design size multiplier (tests use "
                             "a tiny scale)")
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import importlib

    from checks import Mismatch
    from runner import Run

    module, entry, tail_pct, slo_s, unit = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), entry)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    run = Run(args.seed, args.seconds, args.scale, bool(args.trace), work)
    correct = True
    try:
        workload(run)
    except Mismatch as exc:
        correct = False
        run.meta["mismatch"] = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if correct and args.trace:
        (scratch / f"spans-{args.workload}.json").write_text(
            json.dumps(run.tracer.to_dict()))
        values = run.per_layer()
    elif correct:
        values = run.end_to_end(tail_pct, slo_s)
    print(json.dumps({"context": _context(run, args.workload, tail_pct,
                                          slo_s, unit)}))
    if not correct:
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()}}))
    return 0


if __name__ == "__main__":
    import children

    children.adopt_orphans()
    sys.exit(main())
