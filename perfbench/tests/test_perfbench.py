"""Tests of the benchmark itself.

    python -m pytest perfbench/tests

Tiny-scale smoke runs of every workload (untraced and traced), no
process outliving a run, the correctness gate catching a corrupted, repeated or dropped path, the
tail rule, and the comparison's verdicts on recorded sweeps.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run as bench  # noqa: E402
import stats  # noqa: E402
from checks import Mismatch, check_topk, reference_slacks  # noqa: E402
from sweep import load_benchmark, read  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0.5", "--scale", "0.25"]
RESULTS = HERE / "results"


def _declared(trace: int) -> dict[str, str]:
    spec = load_benchmark()
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(trace)
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in declared)
    context = json.loads(proc.stdout.splitlines()[-2])["context"]
    for key in ("cores", "python", "numpy", "git_sha", "seed", "samples",
                "tail_percentile", "profile_meta"):
        assert key in context


_LEAVES_CHILDREN = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import children
children.adopt_orphans()
from multiprocessing import resource_tracker
resource_tracker.ensure_running()
# A child that exits at once and leaves a grandchild running.
grandchild = subprocess.run(
    [sys.executable, "-c", "import subprocess, sys; print(subprocess.Popen("
     "[sys.executable, '-c', 'import time; time.sleep(1)']).pid)"],
    capture_output=True, text=True, check=True).stdout.strip()
print(resource_tracker._resource_tracker._pid, grandchild, flush=True)
"""


def test_run_leaves_no_process_behind():
    """The resource tracker and an orphaned grandchild have both ended
    and been waited for when the process that started them exits."""
    proc = subprocess.run([sys.executable, "-c", _LEAVES_CHILDREN,
                           str(HERE)], capture_output=True, text=True,
                          timeout=60, check=True)
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _corrupt(kind: str):
    """A ``top_paths`` that returns a wrong answer of ``kind``."""
    from repro.cppr.engine import CpprEngine

    original = CpprEngine.top_paths

    def corrupted(self, k, mode, corner=None):
        if kind == "dropped":
            # The most critical path is missing; the list stays full.
            return original(self, k + 1, mode, corner)[1:]
        paths = original(self, k, mode, corner)
        if kind == "repeated":
            return paths[:1] + paths[:-1]
        bad = dataclasses.replace(paths[0], slack=paths[0].slack + 1e-3)
        return [bad] + paths[1:]

    return corrupted


@pytest.mark.parametrize("kind, workload, reason", [
    ("slack", "topk_shallow", "re-timed"),
    ("dropped", "topk_shallow", "baseline timer"),
    ("repeated", "topk_deep", "repeats a path"),
])
def test_wrong_answer_fails_the_run(kind, workload, reason, monkeypatch,
                                    capsys):
    from repro.cppr.engine import CpprEngine

    monkeypatch.setattr(CpprEngine, "top_paths", _corrupt(kind))
    code = bench.main(["--workload", workload, "--trace", "0", *TINY])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert reason in json.loads(lines[-2])["context"]["mismatch"]


def test_check_topk_rejects_wrong_order_length_repeats_and_slacks():
    from repro import CpprEngine, TimingAnalyzer
    from repro.workloads.suite import build_design

    analyzer = TimingAnalyzer(*build_design("vga_lcdv2", scale=0.25))
    reference = reference_slacks(analyzer, 5)
    ranked = [(p.slack, p.pins)
              for p in CpprEngine(analyzer).top_paths(6, "setup")]
    check_topk(analyzer, ranked[:5], 5, "setup", reference)
    for wrong in (ranked[:4], ranked[4::-1], ranked[:1] + ranked[:4],
                  ranked[1:6]):
        with pytest.raises(Mismatch):
            check_topk(analyzer, wrong, 5, "setup", reference)


def test_tail_percentile_rule():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(500) == 98
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(60) == 83
    assert stats.tail_percentile(9) is None
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0], 100) == 3.0


def _recorded(name: str) -> list[dict]:
    return read(RESULTS / name)


def _slowed(rows: list[dict], factor: float, keep_pairs=True) -> list[dict]:
    """``rows`` with every time made ``factor`` slower."""
    out = []
    for row in rows:
        row = json.loads(json.dumps(row))
        if not keep_pairs:
            row.pop("pair", None)
        for metric in row["result"]["metrics"].values():
            if metric["unit"] == "s":
                metric["value"] *= factor
            elif metric["unit"] == "1/s":
                metric["value"] /= factor
        out.append(row)
    return out


def _verdicts(base, new) -> dict[tuple[str, str], str]:
    return {(v["workload"], v["metric"]): v["verdict"]
            for v in compare.compare(base, new, load_benchmark())}


#: An interleaved sweep of unchanged code: ``sweep.py --base A --new B``
#: with A and B two checkouts of the same commit.
PAIRS = "pairs-unchanged.jsonl"
TIMES = ("units_per_s", "unit_p50_s", "unit_tail_s", "setup_s")


def test_compare_flags_a_ten_percent_slowdown():
    base, _new = compare.split_sides(_recorded(PAIRS))
    # Each slowed row is its own run made 10% slower: an interleaved
    # pair with no drift between its two runs.
    verdicts = _verdicts(base, _slowed(base, 1.10))
    for workload in load_benchmark()["workloads"]:
        for metric in TIMES:
            assert verdicts[workload["name"], metric] == "regression"
    # The same shift between runs that were not interleaved cannot be
    # told from a drift of the machine.
    verdicts = _verdicts(base, _slowed(base, 1.10, keep_pairs=False))
    for workload in load_benchmark()["workloads"]:
        for metric in TIMES:
            assert verdicts[workload["name"], metric] == "unresolved"


@pytest.mark.parametrize("flip", [False, True])
def test_compare_passes_unchanged_code_in_both_orders(flip):
    spec = load_benchmark()
    runs = [compare.split_sides(_recorded(PAIRS)),
            (_recorded("sweep-a.jsonl"), _recorded("sweep-b.jsonl"))]
    for base, new in runs:
        if flip:
            base, new = new, base
        verdicts = _verdicts(base, new)
        assert "regression" not in verdicts.values()
        assert "gain" not in verdicts.values()
        assert len(verdicts) == len(spec["workloads"]) * (
            len(spec["end_to_end"]) + 1)


def test_compare_flags_more_failed_units_and_claims_no_gain():
    base, _new = compare.split_sides(_recorded(PAIRS))
    new = _slowed(base, 0.5)
    for row in new:
        if row["workload"] == "serve_mixed":
            row["result"]["failed"] += 1
    verdicts = _verdicts(base, new)
    assert verdicts["serve_mixed", "failed_frac"] == "regression"
    assert verdicts["topk_deep", "failed_frac"] == "same"
    assert verdicts["topk_deep", "unit_p50_s"] == "gain"
    assert all(verdict != "gain" for (workload, _), verdict
               in verdicts.items() if workload == "serve_mixed")
