"""Compare the parent against a change on recorded benchmark runs.

    python3 perfbench/compare.py PAIRS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

``PAIRS.jsonl`` comes from ``sweep.py --base DIR --new DIR``: each seed
ran on both checkouts back to back, alternating which ran first, so the
two runs of a pair saw the same state of the machine.  ``BASE.jsonl``
and ``NEW.jsonl`` are two separate sweeps; their runs were made at
different times, so a drift of the machine between them reads like a
change and only their medians are judged.

Every end-to-end metric of every workload gets one verdict:

* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json``; or, over at
  least ``MIN_PAIRS`` interleaved pairs, the change is worse on nine
  tenths of them and its median paired worsening exceeds both the
  spread of those pairs and ``NOISE_FLOOR`` (a consistent slowdown
  smaller than the bound);
* ``gain`` -- over at least ``MIN_PAIRS`` interleaved pairs, the change
  is better on nine tenths of them (ties count for neither) and the
  medians differ by more than the parent's own spread (the distance
  between its quartiles), and no more units fail than at the parent;
* ``unresolved`` -- the parent's spread is wider than the bound, or the
  seed pairs agree on a change but were not interleaved;
* ``same`` -- otherwise.

Each workload also gets a ``failed_frac`` row: ``regression`` when a
larger share of the change's units failed than of the parent's.

Exits 1 when anything regresses.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from sweep import load_benchmark, read  # noqa: E402

#: Paired worsening below this share is never called a regression.
NOISE_FLOOR = 0.02
#: Share of pairs that must agree for a paired verdict.
AGREE = 0.9
#: Fewest pairs a paired verdict is drawn from.
MIN_PAIRS = 10


def _worse(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _pairs(base_rows, new_rows, workload: str):
    """``(base row, new row)`` pairs of ``workload`` and whether they
    were interleaved.

    Rows sharing a ``pair`` id ran back to back; rows without one are
    matched by seed.
    """
    base = [r for r in base_rows if r["workload"] == workload]
    new = [r for r in new_rows if r["workload"] == workload]
    new_by_pair = {r["pair"]: r for r in new if r.get("pair")}
    interleaved = [(r, new_by_pair[r["pair"]]) for r in base
                   if r.get("pair") in new_by_pair]
    if interleaved:
        return interleaved, True
    new_by_seed = {r["seed"]: r for r in new}
    return ([(r, new_by_seed[r["seed"]]) for r in base
             if r["seed"] in new_by_seed], False)


def _failed_share(rows) -> float:
    attempted = sum(r["result"]["attempted"] for r in rows)
    return sum(r["result"]["failed"] for r in rows) / max(1, attempted)


def _value(row, metric: str) -> float | None:
    entry = row["result"]["metrics"].get(metric)
    return None if entry is None else entry["value"]


def compare(base_rows: list[dict], new_rows: list[dict],
            bench: dict) -> list[dict]:
    """One verdict per (workload, end-to-end metric) present in both,
    plus one ``failed_frac`` verdict per workload."""
    verdicts = []
    for workload in (w["name"] for w in bench["workloads"]):
        base_w = [r for r in base_rows if r["workload"] == workload]
        new_w = [r for r in new_rows if r["workload"] == workload]
        if not base_w or not new_w:
            continue
        base_failed, new_failed = _failed_share(base_w), _failed_share(new_w)
        more_failed = new_failed > base_failed
        verdicts.append({"workload": workload, "metric": "failed_frac",
                         "base": base_failed, "new": new_failed,
                         "worse": new_failed - base_failed, "spread": 0.0,
                         "bound": 0.0, "pairs": 0, "interleaved": False,
                         "verdict": "regression" if more_failed
                         else "same"})
        pairs, interleaved = _pairs(base_w, new_w, workload)
        for metric in bench["end_to_end"]:
            name, better, bound = (metric["name"], metric["better"],
                                   metric["bound"])
            base_vals = [v for v in (_value(r, name) for r in base_w)
                         if v is not None]
            new_vals = [v for v in (_value(r, name) for r in new_w)
                        if v is not None]
            if not base_vals or not new_vals:
                continue
            base_med, new_med = (statistics.median(base_vals),
                                 statistics.median(new_vals))
            worse = _worse(base_med, new_med, better)
            spread = (stats.iqr_share(base_vals) if len(base_vals) > 1
                      and base_med else 0.0)
            paired = [_worse(_value(b, name), _value(n, name), better)
                      for b, n in pairs]
            agreed = len(paired) >= MIN_PAIRS
            losses = sum(1 for p in paired if p > 0)
            wins = sum(1 for p in paired if p < 0)
            if agreed:
                q1, paired_med, q3 = statistics.quantiles(paired, n=4)
                consistent_loss = (losses >= AGREE * len(paired)
                                   and paired_med > max(q3 - q1,
                                                        NOISE_FLOOR))
                consistent_win = (wins >= AGREE * len(paired)
                                  and -worse > spread)
            else:
                consistent_loss = consistent_win = False
            every_run_better = all(
                _worse(b, n, better) < 0 for b in base_vals
                for n in new_vals)
            if worse > bound or (consistent_loss and interleaved):
                verdict = "regression"
            elif consistent_loss:
                verdict = "unresolved"
            elif spread > bound:
                verdict = ("gain" if every_run_better and not more_failed
                           else "unresolved")
            elif consistent_win:
                verdict = ("gain" if interleaved and not more_failed
                           else "unresolved")
            else:
                verdict = "same"
            verdicts.append({"workload": workload, "metric": name,
                             "base": base_med, "new": new_med,
                             "worse": worse, "spread": spread,
                             "bound": bound, "pairs": len(paired),
                             "interleaved": interleaved,
                             "verdict": verdict})
    return verdicts


def split_sides(rows: list[dict]) -> tuple[list[dict], list[dict]]:
    """Split an interleaved sweep into its base and new rows."""
    if not all(row.get("side") for row in rows):
        raise SystemExit("one file given, but it is not an interleaved "
                         "sweep (sweep.py --base --new)")
    return ([r for r in rows if r["side"] == "base"],
            [r for r in rows if r["side"] == "new"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        base_rows, new_rows = split_sides(read(argv[0]))
    elif len(argv) == 2:
        base_rows, new_rows = read(argv[0]), read(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    verdicts = compare(base_rows, new_rows, load_benchmark())
    for v in verdicts:
        print(f"{v['workload']:13s} {v['metric']:16s} base {v['base']:11.5g}"
              f"  new {v['new']:11.5g}  worse {v['worse']:+7.2%}"
              f"  spread {v['spread']:6.2%}  bound {v['bound']:.2f}"
              f"  pairs {v['pairs']:2d}"
              f"{' interleaved' if v['interleaved'] else ''}"
              f"  {v['verdict']}")
    print(json.dumps({"regressions": sum(v["verdict"] == "regression"
                                         for v in verdicts)}))
    return 1 if any(v["verdict"] == "regression" for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
