"""One jforge CLI call in a fresh interpreter.

    python child.py TRACE JOB ARGV_JSON

Imports ``jforge.cli`` and builds its parser, stamps the monotonic clock
(the parent subtracts its spawn stamp to get the set-up time), then times
``jforge.cli.main(argv)`` alone with the report captured.  With TRACE 1
the tracer's wrappers are installed between the two.  A fixed calibration
loop runs right before and right after ``main`` and, untraced, every
TICK_S seconds during it, so the parent can scale out how fast the host
ran while ``main`` did.  The last stdout line is one
JSON object: exit code or error, timings, peak RSS, the (name, pass)
verdicts of the report and, when traced, the aggregates and spans.
"""

import gc
import signal
import sys
import time

TICK_S = 0.2


def calibrate(n: int = 1000) -> float:
    """Seconds for a fixed piece of Fraction and dict work, collector off.

    With the collector off the loop's time does not depend on how much the
    program has allocated, only on how fast the host runs Python just now.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = {}
        start = time.perf_counter()
        for i in range(n):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def edge_sample() -> float:
    return sum(calibrate() for _ in range(5)) / 5


class Speedometer:
    """Calibration samples every TICK_S seconds of wall time (SIGALRM).

    The handler runs between bytecodes of whatever is executing, so long
    calls get their host speed sampled throughout; the time the samples
    take is summed in ``spent`` for the caller to subtract.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run() -> dict:
    import jforge.cli

    jforge.cli.build_parser()
    ready = time.monotonic()

    import contextlib
    import io
    import json
    import resource
    import traceback

    trace, job, argv = sys.argv[1] == "1", int(sys.argv[2]), json.loads(sys.argv[3])
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(job)
        tracer.install()
    out = {"ready": ready, "rc": None, "error": None, "checks": []}
    before = edge_sample()
    # traced calls keep the edge samples only: a tick would land inside
    # the self time of whichever wrapped function it interrupted
    meter = Speedometer()
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), (contextlib.nullcontext() if trace else meter):
            out["rc"] = jforge.cli.main(argv)
    except SystemExit as exc:
        out["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        out["error"] = traceback.format_exc(limit=-3)
    out["main_s"] = time.perf_counter() - start - meter.spent
    samples = [before] + meter.samples + [edge_sample()]
    out["calib_setup_s"] = before
    out["calib_s"] = sum(samples) / len(samples)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if out["error"] is None:
        try:
            report = json.loads(captured.getvalue())
            out["checks"] = [[c["name"], c["pass"]] for c in report["checks"]]
        except (ValueError, KeyError, TypeError) as exc:
            out["error"] = f"unreadable report: {exc!r}"
    if tracer is not None:
        out["stats"] = tracer.stats
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    result = run()
    import json

    print(json.dumps(result))
