"""Serving process: replay requests through invseq.cli.main in a closed loop.

Reads ``{"src": ..., "trace": bool, "argvs": [[...], ...]}`` as JSON on
stdin, sends each request only after the previous one has returned, and
writes one JSON line per request to stdout (wall time, the calibration
kernel's time around it, exit code, escaped exception, captured stdout
and stderr).  A last line carries the peak
resident set, read before anything else is done, and with tracing on the
spans and counters.  This process does nothing but serve, so its peak
resident set is the program's.

Run by run.py; not meant to be started by hand.
"""

import contextlib
import gc
import io
import json
import resource
import sys
from time import perf_counter

import calibrate


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import invseq.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install([m for name, m in sorted(sys.modules.items())
                        if name == "invseq" or name.startswith("invseq.")])

    proto = sys.stdout
    cal = calibrate.sample()
    for i, argv in enumerate(job["argvs"]):
        # Each request starts from a collected heap, as a fresh process would.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        if tracer:
            tracer.begin_request(i)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = invseq.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:
            exc = type(e).__name__
        wall = perf_counter() - start
        if tracer:
            tracer.end_request()
        cal_after = calibrate.sample()
        proto.write(json.dumps({"i": i, "s": wall, "cal": (cal + cal_after) / 2,
                                "rc": rc, "exc": exc,
                                "out": out.getvalue(), "err": err.getvalue()[-500:]})
                    + "\n")
        cal = cal_after
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    final = {"done": True, "peak_rss_kb": peak_kb}
    if tracer:
        final.update(tracer.report())
    proto.write(json.dumps(final) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
