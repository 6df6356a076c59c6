"""``repro serve`` with the benchmark's layer wrappers installed.

    python perfbench/serve_traced.py LEDGER [repro serve arguments ...]

Used by the traced ``serve_mixed`` run.  Besides the layers of
``tracing.install`` it records a ``server.handle`` span around every
request the service handles.  On drain it writes every span and count
to ``LEDGER`` as JSON.  The engine's answer memo stays on, as in the
untraced server, because no obs collector is installed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.server.service import TimingService

    ledger, args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    handle = TimingService.handle
    TimingService.handle = tracer.wrap("server.handle", handle)
    try:
        with install(tracer):
            code = cli_main(["serve", *args])
    finally:
        TimingService.handle = handle
        ledger.write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
