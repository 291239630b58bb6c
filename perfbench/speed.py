"""Speed calibration for timing on a shared machine.

On a small shared VM the speed of a vCPU swings by up to 2x over tens of
seconds as neighbours load the host; a minimum or a median over one run does
not remove that, because a whole run can fall in a slow stretch. The swing
hits interpreter-bound code with small numpy calls much alike, so the
benchmark times a fixed calibration loop next to the operations it measures
and reports their latency scaled to a fixed reference speed:

    reported = measured * REFERENCE_S / (calibration loop time measured alongside)

On the reference machine (2 vCPUs at 2.1 GHz, Python 3.11.7, numpy 2.4.6),
over two minutes of changing load, 10-second medians of one 644-step
scenario run ranged from 7.2 to 13.4 ms raw, and within +-3% once divided by
a loop of this kind timed alongside. A change in ctrlkit moves the measured
time but not the loop, so it shows in full.
"""

import math
import time

import numpy as np

# Seconds the loop takes on the reference machine when the host is quiet;
# reported times are seconds at that speed.
REFERENCE_S = 0.0016

_M = np.array([[2.0, 0.3], [0.3, 1.0]])
_A = np.array([[0.0, 1.0, 0.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _loop():
    # the mix of a control-loop step with re-synthesis: Python float code,
    # tiny numpy calls and small dense linear algebra
    x = np.array([0.1, 0.2])
    s = 0.0
    for i in range(100):
        x = x + 1e-3 * np.linalg.solve(_M, np.array([math.sin(x[0]), x[1] * 0.5]))
        s += float((_A @ np.array([x[0], x[1], s * 1e-3]))[1]) * 0.5 + math.cos(s)
        if i % 4 == 0:
            c = np.poly(np.array([-4.0, -4.0 + s * 1e-3, -4.0]))
            s += float(np.linalg.svd(_A + c[1] * 1e-3, compute_uv=False)[0]) * 1e-9
    return s


def sample():
    """Seconds one calibration loop takes right now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scaled(seconds, calibration):
    """seconds measured while the loop took `calibration`, at the reference speed."""
    return seconds * REFERENCE_S / calibration
