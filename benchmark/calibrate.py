"""Machine-speed calibration for the end-to-end times.

The reference machine is shared: its speed moves by up to 1.6x within a
minute as other tenants come and go, and a run sees whatever state the host
is in.  The benchmark therefore times this fixed loop next to the measured
work, in the same process, and scales each measured time by
``REFERENCE_S / loop time``.  The loop is benchmark code and touches no
multiflow code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median loop time on the reference machine (shared 2-core VM, Python 3.11,
# numpy 2.4) in its fast state.
REFERENCE_S = 0.040


def loop() -> float:
    """Seconds taken by a fixed mix of Python float arithmetic and small numpy calls."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += (i * 0.5) ** 0.5
    x = np.arange(2000.0)
    for _ in range(800):
        acc += float(np.sum(np.sqrt(x + acc % 1.0)))
    return time.perf_counter() - start
