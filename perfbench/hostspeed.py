"""Host speed, read with fixed probes, to scale measured times to a reference host.

The reference machine is a KVM guest with 2 vCPUs on a shared host. Its
throughput drifts by up to 2x over seconds to minutes as other tenants load
the host. The drift shows in CPU time as much as in wall time, and steal
time stays at 0, so neither longer runs nor the fastest of several passes
remove it: a run made while the host is busy is slow from start to end.

So the benchmark reads the host's speed beside the work it times, with a
probe of the same kind of work, and reports reference seconds: the measured
time times the probe's reference time over its time now, that is, the time
the work would take on the reference machine at the probe's reference
speed. The probes run only the interpreter, the standard library, numpy and
scipy, never effpot, so a change to the program moves its times and not the
probes'.

- ``probe``: the program's in-process mix in small: a pure-Python loop of
  float arithmetic and ``math`` calls, numpy operations on a short array,
  and ``scipy.integrate.quad`` of a Python integrand, like the integrator's
  steps and the quadrature integrands. It brackets every in-process op. On
  transport passes, the ratio of pass time to probe time moved by 5 %
  between a busy and a quiet host, whose measured pass times differ by 1.8x;
  the pure-Python loop alone moved by 11 %.
- ``start_probe``: a fresh isolated interpreter that imports a fixed set of
  standard-library modules, the profile of a cold start (exec, page faults,
  unmarshalling and module bodies). It scales set-up and the CLI processes,
  whose cold start the in-process probe does not track. One start probe is
  as noisy as the work, so each start is scaled by the median of the four
  start probes nearest to it.

Measured times stay in every run record beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Probe times on the reference machine under the lightest host load seen
# while the benchmark was made. Only ratios between runs on one machine
# matter; these constants only set the unit of the scaled times.
REFERENCE_PROBE_S = 7.3e-4
REFERENCE_START_S = 0.125
LOOP_ITERATIONS = 1500
ARRAY_ITERATIONS = 75
QUADRATURES = 4
PROBE_REPEATS = 3
START_IMPORTS = "import argparse, asyncio, decimal, email.mime.text, http.client, json, xml.dom.minidom"


_GRID = np.linspace(0.0, 1.0, 64)


def _loop() -> float:
    # imported here, not at the top, so that set-up times still show which
    # heavy modules effpot imports when it is imported
    from scipy.integrate import quad

    s = 0.0
    for i in range(LOOP_ITERATIONS):
        x = i * 1e-3
        s += math.exp(-x) * math.sqrt(x + 1.0) + math.sin(x)
    for i in range(ARRAY_ITERATIONS):
        s += float(np.sum(np.exp(-_GRID * i) * _GRID))
    for _ in range(QUADRATURES):
        s += quad(lambda x: math.exp(-x * x) * math.cos(x), -3.0, 3.0, epsabs=1e-12)[0]
    return s


def probe() -> list:
    """PROBE_REPEATS timings of the fixed mix, in seconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return times


def scale(before: list, after: list) -> float:
    """Factor from measured to reference seconds for work between two probes."""
    return REFERENCE_PROBE_S / statistics.median(before + after)


def start_probe() -> float:
    """Seconds to start a fresh interpreter, isolated from PYTHONPATH and the
    repository, and import START_IMPORTS."""
    start = perf_counter()
    # with pipes the wait ends when the child exits; without them, a wait with
    # a timeout polls, and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-I", "-c", START_IMPORTS], check=True, timeout=60,
                   capture_output=True)
    return perf_counter() - start


def start_scales(probes: list) -> list:
    """Factors from measured to reference seconds for process starts made in
    a row: probes[k] ran just before start k, and the last probe after the
    last start. Each start is scaled by the median of the two probes before
    it and the two after it."""
    return [REFERENCE_START_S / statistics.median(probes[max(0, k - 1):k + 3])
            for k in range(len(probes) - 1)]
