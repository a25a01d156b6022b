"""Run one pasep CLI job in this fresh process and print one JSON record.

Usage: python3 child.py <trace 0|1> [pasep CLI arguments...]

Without CLI arguments the child only imports pasep (a set-up probe).

`pasep` is imported first, so the parent can time set-up from spawn to the
end of that import (`imported_at` is CLOCK_MONOTONIC, shared by all
processes).  The job is `pasep.cli.run(argv)` with stdout captured; the
record carries its time, return code, output hash, last output line and
the process's peak RSS.  With trace 1, `tracer.Tracer` wraps the package
first and its report rides along; with trace 0 nothing is wrapped.

The record also carries the host's speed.  `calibrate()` times one fixed
unit of pure-Python work, owned by the benchmark and independent of pasep.
It runs `CALIBRATE_ROUNDS` times just before and just after the import
(`calibrating_s` is the part of set-up they took), and, for a job, as often
again before and after it.  In an untraced job it also runs from a SIGALRM
handler every `SAMPLE_EVERY_S` seconds, so the samples cover the job
evenly; `sampler_s` is the time those samples took inside the job, and
`job_s` leaves it out.  The parent scales set-up and job times to a
reference speed with these samples.
"""

import sys
import time
from math import gcd

CALIBRATE_ROUNDS = 4
SAMPLE_EVERY_S = 0.05

# The calibration unit.  Never change it: every normalised time in every
# results file is relative to it.  It mixes what pasep spends its time on:
# a sparse product of dicts keyed by exponent tuples, exact rational sums
# on big integers, and sorting tuples.  It needs no module beyond the
# interpreter's own, so that it can run before pasep is imported.
_FACTOR = {(i, j, k, 0): (i + 2 * j + 3 * k + 1) * 1000003 for i in range(5) for j in range(5) for k in range(2)}
_WORDS = [((7 * i) % 31, (11 * i) % 17, i) for i in range(400)]


def calibrate() -> float:
    """Time one unit of fixed work; about 1.2 ms on the reference host."""
    t0 = time.perf_counter()
    out: dict = {}
    for e1, x in _FACTOR.items():
        for e2, y in _FACTOR.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = out.get(e, 0) + x * y
    num, den = 0, 1
    for i in range(1, 80):
        num, den = num * (i * i + 1) + i * den, den * (i * i + 1)
        g = gcd(num, den)
        num, den = num // g, den // g
    sorted(_WORDS, key=lambda w: (w[1], w[0]))
    return time.perf_counter() - t0


def calibrations() -> list[float]:
    return [calibrate() for _ in range(CALIBRATE_ROUNDS)]


PRE_IMPORT = calibrations()

import pasep.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402


@contextlib.contextmanager
def sampling(samples: list[float]):
    """Append a calibration time to `samples` every SAMPLE_EVERY_S seconds."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(calibrate()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def main(trace: bool, argv: list[str]) -> dict:
    record = {
        "imported_at": IMPORTED_AT,
        "calibrating_s": sum(PRE_IMPORT),
        "setup_calibration": PRE_IMPORT + calibrations(),
    }
    if not argv:  # a set-up probe: import only
        return record
    tracer = None
    call = pasep.cli.run
    sampled: list[float] = []
    sampler = sampling(sampled)
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = lambda args: tracer.run_root(pasep.cli.run, args)  # noqa: E731
        sampler = contextlib.nullcontext()  # the tracer would time the samples too
    before = calibrations()
    out = io.StringIO()
    t0 = time.perf_counter()
    with sampler, contextlib.redirect_stdout(out):
        rc = call(argv)
    job_s = time.perf_counter() - t0
    after = calibrations()
    text = out.getvalue()
    lines = text.rstrip("\n").rsplit("\n", 1)
    record.update(
        job_s=job_s - sum(sampled),
        sampler_s=sum(sampled),
        job_calibration=before + sampled + after,
        rc=rc,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
        tail=lines[-1],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        trace=tracer.report() if tracer else None,
    )
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1] == "1", sys.argv[2:])))
