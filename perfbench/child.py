"""One benchmark client interpreter: runs `wfano.cli.main(argv)` in-process.

Usage: python3 perfbench/child.py SRC_DIR TRACE

SRC_DIR is the directory holding the `wfano` package; TRACE is 1 to wrap
the library's functions with spans (see tracing.py), else 0.

Protocol, one JSON object per line.  On start the child imports
`wfano.cli` and loads the golden data, then writes
`{"setup_s": ..., "trace": ...}`; `setup_s` includes the wrapping when
tracing.  For each request line
`{"calls": [argv, ...]}` read from stdin it runs every argv with stdout
and stderr captured and writes
`{"results": [{"code": ..., "s": ..., "out": ...}, ...], "rss_kb": ...,
"trace": ...}`, where `s` is the wall time of that `main` call alone.
For the request `{"calibrate": true}` it times `calibration()`, a fixed
pure-Python loop that uses no wfano code, and writes `{"cal_s": ...}`.
It exits at end of input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:          # argparse usage errors
            code = exc.code
        except Exception as exc:           # a traceback is a failed op
            code = f"raised {type(exc).__name__}: {exc}"
    s = time.perf_counter() - t0
    return {"code": code, "s": s, "out": out.getvalue(),
            "err": err.getvalue()[-2000:]}


def calibration() -> float:
    """Seconds for a fixed loop of dict, tuple, int and str work.

    The loop stands in for the host's speed of the moment: the benchmark
    scales op and set-up times by it (see run.py), so it must never call
    the program under test.
    """
    t0 = time.perf_counter()
    acc: dict = {}
    total = 0
    for i in range(60000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 3
        total += len(str(i)) + (i & 7)
    return time.perf_counter() - t0


def main() -> None:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, os.path.abspath(src))
    tracer = None
    t0 = time.perf_counter()
    import wfano.cli
    import wfano.golden
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wfano.golden.data()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(wfano.cli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported wfano from {wfano.cli.__file__}, "
                         f"not from {src}")
    reply = sys.stdout
    reply.write(json.dumps({"setup_s": setup_s,
                            "trace": tracer.take() if tracer else None})
                + "\n")
    reply.flush()
    cli_main = wfano.cli.main  # the traced wrapper when tracing
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("calibrate"):
            reply.write(json.dumps({"cal_s": calibration()}) + "\n")
            reply.flush()
            continue
        results = [_run(cli_main, argv) for argv in request["calls"]]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply.write(json.dumps({"results": results, "rss_kb": rss_kb,
                                "trace": tracer.take() if tracer else None})
                    + "\n")
        reply.flush()


if __name__ == "__main__":
    main()
