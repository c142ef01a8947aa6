"""Host-speed probe for normalising end-to-end timings.

On a shared host the speed of one core drifts by 10-40% over tens of
seconds, so the same call timed in two runs a few minutes apart can
differ by more than any bound worth setting.  The drift is largest in
interpreter-bound code such as the toric kernel, and a small fixed unit
of that kind of work, timed every PROBE_EVERY_S while the workload runs,
slows and speeds up with it: on a 2-core Xeon VM the 10 s means of
probe and kernel times correlated at 0.94-0.98.  NumPy-bound calls,
such as the examples command, drift less, and for them the scaling adds
a few percent of spread.

The probe runs from a SIGALRM handler, so it also samples the host in
the middle of long calls; it touches no ma_lab state and installs no
wrapper.  Its own time is subtracted from the call it interrupted.  A
call's normalised time is its probe-free time scaled by NOMINAL_S over
the median probe time around the call: the seconds it would take on a
host where the probe takes NOMINAL_S.
"""

import gc
import signal
import statistics
import time

import numpy as np
from scipy.spatial import ConvexHull

PROBE_EVERY_S = 0.25
# median probe time on a quiet 2-core Xeon VM (2.0 GHz); it sets only the scale
NOMINAL_S = 0.0035
# probes within this distance of a call also count for it, so a short
# call between two probes still gets the median of several
PAD_S = 1.0


class _Unit:
    """The probed work: a lower hull of a lifted 24x24 grid and set
    building over its neighbour lists, as in the toric kernel."""

    def __init__(self):
        g = np.linspace(0.0, 1.0, 24)
        x, y = np.meshgrid(g, g, indexing="ij")
        z = (x - 0.3) ** 2 + (y - 0.6) ** 2 + 0.01 * np.sin(17 * x * y)
        self.pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])

    def __call__(self):
        hull = ConvexHull(self.pts, qhull_options="Qt")
        nbrs = [set() for _ in range(len(self.pts))]
        for a, b, c in hull.simplices.tolist():
            nbrs[a].update((b, c))
            nbrs[b].update((a, c))
            nbrs[c].update((a, b))
        return sum(len(s) for s in nbrs)


class HostProbe:
    """Times the probe unit every PROBE_EVERY_S inside a with block."""

    def __init__(self, every=PROBE_EVERY_S):
        self.every = every
        self.unit = _Unit()
        self.unit()  # warm the probe's own code paths
        self.samples = []   # (start, seconds)
        self._busy = False
        self._old = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        # a collection triggered by the probe's allocations would scan the
        # program's heap, and its time would follow the program's size
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.unit()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self.sample()  # so that even a block shorter than `every` has one

    def probe_time(self, start, end):
        """Seconds the probe itself ran inside [start, end]."""
        return sum(d for t, d in self.samples if start <= t < end)

    def factor(self, start, end):
        """NOMINAL_S over the median probe time around [start, end]."""
        near = [d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S]
        return NOMINAL_S / statistics.median(near or [d for _, d in self.samples])

    def normalise(self, start, end):
        """Probe-free seconds of [start, end] and their normalised value."""
        raw = (end - start) - self.probe_time(start, end)
        return raw, raw * self.factor(start, end)
