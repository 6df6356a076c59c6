"""Run the benchmark over several seeds and record every result.

    python3 perfbench/sweep.py --out FILE [--workloads W ...] --seeds N ...
                               [--trace 0|1] [--seconds S]
                               [--base DIR --new DIR]

Runs are interleaved (seed by seed, every workload in turn) so a drift
of the machine touches all workloads alike.  Each run appends one JSON
line ``{"workload", "seed", "wall_s", "context", "result"}`` to
``FILE``.  At the end the spread of every metric is printed: the
distance between the first and third quartile as a share of the
median, the steadiness figure ``BENCHMARK.json`` bounds are checked
against.

With ``--base`` and ``--new`` (two checkouts, each with this
benchmark) every seed and workload runs on both, back to back, and the
side that runs first alternates from pair to pair.  Such a pair sees
the same state of the machine, so ``compare.py`` may judge it; rows
then also carry ``side`` and a ``pair`` id shared by the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed,
            "wall_s": time.monotonic() - started,
            "context": json.loads(lines[-2])["context"],
            "result": json.loads(lines[-1])}


def read(path) -> list[dict]:
    with open(path, encoding="utf-8") as rows:
        return [json.loads(line) for line in rows if line.strip()]


def spreads(rows: list[dict]) -> dict[tuple[str, str], tuple[float, float]]:
    """``(workload, metric) -> (median, IQR share)`` over ``rows``."""
    values: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        for name, metric in row["result"]["metrics"].items():
            values.setdefault((row["workload"], name), []).append(
                metric["value"])
    return {key: (stats.median(vals),
                  stats.iqr_share(vals) if len(vals) > 1
                  and stats.median(vals) else 0.0)
            for key, vals in values.items()}


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--base", type=Path,
                        help="parent checkout, run in pairs with --new")
    parser.add_argument("--new", type=Path, help="changed checkout")
    args = parser.parse_args(argv)
    if (args.base is None) != (args.new is None):
        parser.error("--base and --new go together")
    sides = ([("base", args.base), ("new", args.new)] if args.base
             else [(None, HERE.parent)])

    rows = []
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in args.seeds:
            for workload in args.workloads:
                pair = f"{stamp}/{seed}/{workload}"
                order = (sides if len(rows) // len(sides) % 2 == 0
                         else sides[::-1])
                for side, checkout in order:
                    row = run_once(checkout, workload, seed, args.seconds,
                                   args.trace)
                    if not row["result"]["correct"]:
                        raise RuntimeError(f"{workload} seed {seed}: "
                                           f"wrong answer")
                    if side is not None:
                        row.update(side=side, pair=pair,
                                   first=side == order[0][0])
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    rows.append(row)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for side, _checkout in sides:
        mine = [row for row in rows if row.get("side") == side]
        for (workload, name), (median, spread) in sorted(
                spreads(mine).items()):
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:.2f}" + (
                "  WIDE" if name != "setup_s" and spread > bound / 3
                else "")
            print(f"{side or '':4s} {workload:13s} {name:28s} "
                  f"median {median:12.6g}  spread {spread:6.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
