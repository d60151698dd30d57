"""Fixed reference kernel that measures the machine's current speed.

The kernel does the same kind of work as exact polynomial arithmetic:
it adds ``Fraction`` products into a dict keyed by small nested tuples.
It imports nothing from the package under test and runs with the cyclic
garbage collector off, so neither the program's code nor the size of its
heap can change the kernel's own time.

``measure`` times one call at reference speed.  It runs the kernel for
about 10 ms just before and just after the call, and, from a ``SIGALRM``
handler, a 1 ms probe of the same kernel every 25 ms during the call.  The
call's time, less the probes' own time, is scaled by
``NOMINAL_S / (ROUNDS x mean seconds per kernel round over those runs)``.
The probes matter for calls longer than the machine's speed phases, which
last from a tenth of a second to a few seconds: there the two outer runs
alone mistake the speed of the whole call.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

ROUNDS = 1400
PROBE_ROUNDS = 140
PROBE_INTERVAL_S = 0.025
NOMINAL_S = 0.010


def _work(rounds):
    acc = {}
    for i in range(rounds):
        key = ((i % 7, i % 5), ((i % 3, 1),), (i % 11,))
        c = Fraction(i % 13 + 1, i % 17 + 2) * Fraction(3, i % 5 + 1)
        s = acc.get(key, Fraction(0)) + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return sum(acc.values(), Fraction(0))


EXPECTED = {n: _work(n) for n in (ROUNDS, PROBE_ROUNDS)}


def run(rounds=ROUNDS):
    """Time one kernel run in seconds; the result is checked so the work
    cannot be skipped."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = _work(rounds)
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if value != EXPECTED[rounds]:
        raise RuntimeError("reference kernel computed %s, expected %s"
                           % (value, EXPECTED[rounds]))
    return elapsed


def measure(fn, *args, on_probe=None):
    """Call ``fn(*args)`` and return ``(result, seconds, scale, speeds)``.

    ``seconds`` excludes the probes' own time and ``seconds * scale`` is
    the time at reference speed.  ``speeds`` lists every kernel run's time
    as the time of ROUNDS rounds at that run's speed.  ``on_probe(spent)``
    is called after each probe, inside the call.  An exception from ``fn``
    propagates once the probe timer is off.
    """
    before = run()
    probes = []

    def probe(signum, frame):
        t = time.perf_counter()
        k = run(PROBE_ROUNDS)
        spent = time.perf_counter() - t
        probes.append((t, k, spent))
        if on_probe is not None:
            on_probe(spent)

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    after = run()
    inside = [(k, spent) for t, k, spent in probes if t < t1]
    seconds = t1 - t0 - sum(spent for _, spent in inside)
    speeds = [before, after] + [k * ROUNDS / PROBE_ROUNDS for k, _ in inside]
    return out, seconds, NOMINAL_S / statistics.mean(speeds), speeds
