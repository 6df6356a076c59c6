"""The serving workload: an open loop against ``repro serve``.

The server runs as its own process (``repro serve --design <file>``),
so the load generator does not share its interpreter lock.  A fixed
seeded schedule sends ``RATE`` requests per second whether or not
earlier ones have finished (independent users), split into one stream
per core up to two, each with one sender thread, one keep-alive
connection and one ECO session.  About 70% of requests are cached
design reads (paged ``rank_paths`` at k=500, ``compute_slack``,
``verify_path``); the rest are session ``update`` with small-cone edits
and session ``rank_paths``.  Latency is timed from each request's due
time, so a stall also charges the requests queued behind it.

Checks (after each phase, in both halves of a traced run): the
design's served top-500 lists pass ``checks.check_topk`` (re-timed path
by path in this process, no path twice, leading slacks equal to the
baseline timer's); every cached read must match them; every verify
must match; and each stream's final session answer must equal an
in-process ``CpprSession`` that replays the same edits.

A traced run starts its second server through ``serve_traced.py``,
which records the same layer spans inside the server process; they are
merged into this run's spans when that server stops.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import designs
from checks import Mismatch, check_topk
from tracing import from_dict

DESIGN = "leon2"
TOKEN = "d"
#: Requests per second, all streams together.  Low enough that the
#: loop stays clear of saturation when the host runs slow: at 50/s the
#: median swung 2x and the share within the limit fell to 0.84 in the
#: slow stretches of a shared 2-CPU machine.
RATE = 20.0
DEEP_K = 500
PAGE = 50
SESSION_K = 50
UPDATE_EDITS = 4
#: Length of one window of the schedule.
WINDOW_S = 1.0
#: Seconds before a due time the sender stops sleeping and polls.
SPIN_S = 0.003
#: Request kinds and their shares of the schedule.
MIX = (("read_rank", 0.30), ("read_slack", 0.20), ("read_verify", 0.20),
       ("update", 0.15), ("session_rank", 0.15))
_SPAN = {"read_rank": "server.read", "read_slack": "server.read",
         "read_verify": "server.read", "update": "server.update",
         "session_rank": "server.session_read"}
MODES = ("setup", "hold")


class Server:
    """One ``repro serve`` child process on a port of its own."""

    def __init__(self, design, work, ledger=None) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        if ledger is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(designs.ROOT / "perfbench" /
                                       "serve_traced.py"), str(ledger)]
        cmd += [str(design), "--port", str(self.port), "--token", TOKEN,
                "--executor", "serial"]
        env = dict(os.environ, PYTHONPATH=str(designs.ROOT / "src"))
        self.ledger = ledger
        #: ``(start, end)`` of the measured phase, for the ledger.
        self.window = (0.0, 0.0)
        self.log = open(work / f"server-{self.port}.log", "wb")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up")
            try:
                conn = self.connect()
                status, _raw = request(conn, "GET", "/healthz")
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.log.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def request(conn, method: str, path: str, body=None):
    """``(status, raw response body)``; decoding is left to the caller."""
    payload = None if body is None else json.dumps(body)
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _ok(conn, method, path, body=None) -> dict:
    status, raw = request(conn, method, path, body)
    if status != 200:
        raise RuntimeError(f"{method} {path}: HTTP {status} {raw[:500]!r}")
    return json.loads(raw)


# ----------------------------------------------------------------------
# The schedule
# ----------------------------------------------------------------------
def _schedule(rng, graph, pool, streams: int, seconds: float):
    """Per stream, ``(due, kind, body)`` requests sorted by due time.

    The count is fixed (``RATE * seconds``) and the due times uniform,
    i.e. a Poisson arrival process conditioned on its count.  Session
    edits are drawn in order against each stream's own mirror of the
    design, so each stays valid whatever came before it.
    """
    sys.path.insert(0, str(designs.ROOT / "benchmarks"))
    from harness import pick_eco_batch
    from repro.sta.incremental import apply_delay_updates

    kinds, weights = zip(*MIX)
    per_stream = max(1, round(RATE * seconds / streams))
    out = []
    for _ in range(streams):
        mirror = graph
        requests = []
        for due in sorted(rng.uniform(0, seconds) for _ in range(per_stream)):
            kind = rng.choices(kinds, weights)[0]
            mode = rng.choice(MODES)
            if kind == "read_rank":
                body = {"k": DEEP_K, "mode": mode, "page_size": PAGE,
                        "page": rng.randrange(DEEP_K // PAGE)}
            elif kind == "read_slack":
                body = {"k": rng.randint(1, DEEP_K), "mode": mode}
            elif kind == "read_verify":
                body = {"mode": mode, "rank": rng.randrange(DEEP_K)}
            elif kind == "update":
                batch = pick_eco_batch(mirror, pool, rng,
                                       min(UPDATE_EDITS, len(pool)))
                mirror = apply_delay_updates(mirror, batch)
                body = {"delays": [
                    {"driver": graph.pin_name(e.driver),
                     "sink": graph.pin_name(e.sink),
                     "early": e.early, "late": e.late} for e in batch]}
            else:
                body = {"k": SESSION_K, "mode": mode}
            requests.append((due, kind, body))
        out.append(requests)
    return out


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------
class Stream(threading.Thread):
    """One sender: one connection, one session, requests in due order."""

    def __init__(self, run, server, sid, requests, reference, t0) -> None:
        super().__init__(daemon=True)
        self.run_ = run
        self.server, self.sid = server, sid
        self.requests, self.reference, self.t0 = requests, reference, t0
        self.results = []
        self.error = None

    def _body(self, kind, body):
        if kind == "read_verify":
            path = self.reference[body["mode"]][body["rank"]]
            return "/designs/%s/verify_path" % TOKEN, {
                "mode": body["mode"], "pins": path["pins"],
                "expect_slack": path["slack"]}
        if kind in ("read_rank", "read_slack"):
            op = "rank_paths" if kind == "read_rank" else "compute_slack"
            return f"/designs/{TOKEN}/{op}", body
        op = "update" if kind == "update" else "rank_paths"
        return f"/sessions/{self.sid}/{op}", body

    def run(self) -> None:
        # Responses are decoded after the phase, so the senders spend no
        # interpreter time on JSON while later requests are due.
        tracer = self.run_.tracer if self.run_.tracing else None
        conn = self.server.connect()
        try:
            for due, kind, body in self.requests:
                due_at = self.t0 + due
                pause = due_at - time.monotonic() - SPIN_S
                if pause > 0:
                    time.sleep(pause)
                # The last stretch is polled, so a slow wake-up from
                # sleep does not count as server latency.
                while time.monotonic() < due_at:
                    time.sleep(0)
                path, payload = self._body(kind, body)
                sent = time.monotonic()
                if tracer is None:
                    status, answer = self._send(conn, path, payload)
                else:
                    with tracer.span("bench.unit", start=due_at):
                        # The wait behind this stream's previous request
                        # is the generator's own queue, reported as
                        # bench.generator_lag_s.
                        with tracer.span("bench.wait", start=due_at):
                            pass
                        with tracer.span(_SPAN[kind]) as span:
                            status, answer = self._send(conn, path, payload)
                    client_s = span.end - span.start
                done = time.monotonic()
                self.results.append(
                    (kind, body, status, answer, due_at, sent, done,
                     done - sent if tracer is None else client_s))
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc
        finally:
            conn.close()

    def _send(self, conn, path, payload):
        try:
            return request(conn, "POST", path, payload)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            return 0, repr(exc).encode()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _check(results, reference) -> list:
    """Check every answer; returns the session edits the server applied."""
    applied = []
    for kind, body, status, answer, *_ in results:
        if status != 200:
            continue
        if kind == "read_rank":
            start = body["page"] * PAGE
            want = reference[body["mode"]][start:start + PAGE]
            if answer["paths"] != want:
                raise Mismatch(f"rank_paths page {body['page']} differs")
        elif kind == "read_slack":
            want = [p["slack"] for p in reference[body["mode"]][:body["k"]]]
            if answer["slacks"] != want:
                raise Mismatch(f"compute_slack k={body['k']} differs")
        elif kind == "read_verify":
            want = reference[body["mode"]][body["rank"]]["slack"]
            got = answer["path"]["slack"]
            if not answer.get("matches") or not _close(got, want):
                raise Mismatch(f"verify_path re-times rank {body['rank']} "
                               f"to {got!r}, ranked at {want!r}")
        elif kind == "update":
            applied.append(body["delays"])
        else:
            slacks = [p["slack"] for p in answer["paths"]]
            if len(slacks) != SESSION_K or slacks != sorted(slacks):
                raise Mismatch("session rank_paths is short or unsorted")
    return applied


def _phase(run, server, sids, schedule, reference):
    """Play ``schedule``; returns per-stream results."""
    t0 = time.monotonic() + 0.05
    streams = [Stream(run, server, sid, requests, reference, t0)
               for sid, requests in zip(sids, schedule)]
    for stream in streams:
        stream.start()
    for stream in streams:
        stream.join()
        if stream.error is not None:
            raise stream.error
    return t0, [[(kind, body, status,
                  json.loads(raw) if status == 200 else raw, *times)
                 for kind, body, status, raw, *times in stream.results]
                for stream in streams]


def _setup(server, streams: int):
    """Wait for the server, open sessions, warm every cache."""
    server.wait_ready()
    conn = server.connect()
    try:
        sids = [_ok(conn, "POST", "/sessions",
                    {"design": TOKEN})["session"]["sid"]
                for _ in range(streams)]
        reference = {mode: _ok(conn, "POST",
                               f"/designs/{TOKEN}/rank_paths",
                               {"k": DEEP_K, "mode": mode,
                                "page_size": DEEP_K})["paths"]
                     for mode in MODES}
        for sid in sids:
            for mode in MODES:
                _ok(conn, "POST", f"/sessions/{sid}/rank_paths",
                    {"k": SESSION_K, "mode": mode})
    finally:
        conn.close()
    return sids, reference


def _final_answers(server, sids):
    conn = server.connect()
    try:
        return [{mode: _ok(conn, "POST", f"/sessions/{sid}/rank_paths",
                           {"k": SESSION_K, "mode": mode})["paths"]
                 for mode in MODES} for sid in sids]
    finally:
        conn.close()


def _oracle(engine, analyzer, reference, baseline, applied_by_stream,
            finals):
    """Check the served lists; replay each stream's edits."""
    from repro import DelayUpdate
    from repro.io.reports import paths_to_dicts

    graph = analyzer.graph
    for mode in MODES:
        check_topk(analyzer,
                   [(entry["slack"],
                     [graph.pin_index[name] for name in entry["pins"]])
                    for entry in reference[mode]],
                   DEEP_K, mode, baseline)
    for applied, final in zip(applied_by_stream, finals):
        session = engine.session()
        for delays in applied:
            session.update(delays=[DelayUpdate(d["driver"], d["sink"],
                                               d["early"], d["late"])
                                   for d in delays])
        for mode in MODES:
            want = paths_to_dicts(session.analyzer,
                                  session.top_paths(SESSION_K, mode))
            if final[mode] != want:
                raise Mismatch(f"session {mode} answer differs from an "
                               f"in-process replay of its edits")


def run_serve(run) -> None:
    import repro.io
    from repro import CpprEngine, CpprOptions, TimingAnalyzer

    sys.path.insert(0, str(designs.ROOT / "benchmarks"))
    from harness import competitive_edit_pool

    files = designs.generate(run.work, run.seed, run.scale, DEEP_K,
                             {DESIGN: 1})
    baseline = designs.reference(files[DESIGN, 0])
    graph, constraints = repro.io.load_design(files[DESIGN, 0])
    analyzer = TimingAnalyzer(graph, constraints)
    engine = CpprEngine(analyzer, CpprOptions(executor="serial"))
    streams = min(2, len(os.sched_getaffinity(0)))
    rng = random.Random(run.seed)
    pool = competitive_edit_pool(analyzer)
    if not pool:
        raise RuntimeError("design offers no small-cone edits")
    run.meta["streams"] = streams
    run.meta["rate_per_s"] = RATE
    run.meta["profile_meta"] = engine.profile_meta()

    servers = []
    totals = {"span": 0.0, "lag": 0.0, "requests": 0, "rss": 0.0}

    def build():
        # The traced set-up starts a server with the layer wrappers.
        ledger = (run.work / f"ledger-{len(servers)}.json" if run.tracing
                  else None)
        servers.append(Server(files[DESIGN, 0], run.work, ledger=ledger))
        return (servers[-1], *_setup(servers[-1], streams))

    def measure(built, budget):
        server, sids, reference = built
        with run.aside():
            schedule = _schedule(rng, graph, pool, streams, budget)
        # The schedule plays in short windows with the host timed
        # between them (see ``hostspeed``); the server idles meanwhile.
        windows = max(1, round(budget / WINDOW_S))
        width = budget / windows
        results = [[] for _ in sids]
        started = None
        for window in range(windows):
            if window:
                run.time_host()
            part = [[(due - window * width, kind, body)
                     for due, kind, body in requests
                     if min(int(due // width), windows - 1) == window]
                    for requests in schedule]
            t0, part_results = _phase(run, server, sids, part, reference)
            started = t0 if started is None else started
            flat = [r for stream in part_results for r in stream]
            if flat:
                totals["span"] += max(r[6] for r in flat) - t0
            for mine, new in zip(results, part_results):
                mine.extend(new)
        server.window = (started, time.monotonic())
        finals = _final_answers(server, sids)
        totals["rss"] = max(totals["rss"], server.peak_rss_mb())
        flat = [r for stream in results for r in stream]
        for kind, _body, status, answer, due_at, sent, done, _client in flat:
            run.record(done - due_at if status == 200 else None)
            if status != 200:
                run.count("server.non200")
            elif kind == "update":
                run.record_update(answer["update"])
        totals["lag"] += sum(r[5] - r[4] for r in flat)
        totals["requests"] += len(flat)
        with run.aside():
            applied = [_check(stream, reference) for stream in results]
            _oracle(engine, analyzer, reference, baseline, applied, finals)

    def teardown(built):
        server = built[0]
        server.stop()
        if server.ledger is not None:
            t0, t1 = server.window
            spans, events = from_dict(
                json.loads(server.ledger.read_text()),
                lambda t: "setup" if t < t0 else "run" if t <= t1
                else "check")
            run.tracer.spans += spans
            run.tracer.events += events

    try:
        run.segments(build, measure, teardown)
    finally:
        for server in servers:
            server.stop()
    run.throughput = len(run.units) / totals["span"]
    run.within = sum(1 for u in run.units if u <= 0.1)
    run.peak_rss_mb = totals["rss"]
    run.meta["generator_lag_s"] = totals["lag"] / totals["requests"]
