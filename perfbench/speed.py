"""Timing at a nominal machine speed, from a reference loop run between
serving steps.

The benchmark's machine is a few cores of a shared host, and its speed
drifts by up to two times over minutes, and by a tenth or more from one
second to the next, as other work comes and goes.  Wall figures taken
minutes apart then differ by more than a change to the program would
move them.  So a timed pass runs a short reference loop between its
serving steps, every :data:`PROBE_EVERY_S` seconds: fixed code of the
benchmark's own that calls nothing of the program — small NumPy matrix
products, quantisation, bit packing and sorting, and a Python dictionary
tally, the kinds of work the serving loop does.

A :class:`Meter` is the pass's clock, and it runs at the nominal
machine speed: the wall time since its last probe, divided by the
machine's *slowness* — the reference loop's recent time over its nominal
time, :data:`REFERENCE_NOMINAL_S`, smoothed over the last few probes.
The time the probes take is left out.  Serving steps, and so the
program's own timestamps, are timed on it, each at the speed the machine
had just before the step.  No change to the program can move the
reference, so a program that gets faster or slower moves the metered
figures by as much as it moves the wall figures.
"""

from __future__ import annotations

import numpy as np

from tracer import clock

#: Seconds one reference loop takes at nominal machine speed: about its
#: median on the two-core machine of the README's baselines.
REFERENCE_NOMINAL_S = 0.004
#: Least wall time between two probes of a pass, in seconds: every step of an Ecco pass, every few steps of a much faster fp16 one.
PROBE_EVERY_S = 0.05
#: Weight of the newest probe in the smoothed slowness.
SMOOTHING = 0.5
_ITERATIONS = 150

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((16, 128)).astype(np.float32)
_WEIGHTS = (_rng.standard_normal((128, 128)) / 12).astype(np.float32)


def reference_loop() -> float:
    """The fixed reference work; returns a checksum so none of it is
    dead code."""
    rows, tally, checksum = _ROWS, {}, 0.0
    for i in range(_ITERATIONS):
        rows = np.tanh(rows @ _WEIGHTS)
        quantised = np.round(rows * 7).astype(np.int8)
        packed = np.packbits(quantised > 0, axis=1)
        order = np.argsort(quantised[i % 16], kind="stable")
        for value in quantised[i % 16, :32].tolist():
            tally[value] = tally.get(value, 0) + 1
        checksum += float(packed.sum()) + int(order[0])
    return checksum + len(tally)


class Meter:
    """The clock of one timed pass, in seconds at the nominal machine
    speed, with the reference probes left out."""

    def __init__(self) -> None:
        self.probes = 0
        #: Wall seconds spent outside the probes since construction.
        self._created = clock()
        self._probe_s = 0.0
        #: Wall and metered time at the end of the last probe, and the
        #: smoothed slowness it left (1 until the first probe).
        self._wall = self._created
        self._metered = 0.0
        self._slowness = 1.0
        self._slowness_sum = 0.0

    def __call__(self) -> float:
        return self._metered + (clock() - self._wall) / self._slowness

    def wall(self) -> float:
        """Wall seconds since construction, without the probes."""
        return clock() - self._created - self._probe_s

    def probe(self) -> None:
        """Run the reference loop once, outside the meter's time, and
        fold its time into the slowness."""
        start = clock()
        self._metered += (start - self._wall) / self._slowness
        reference_loop()
        self._wall = clock()
        self._probe_s += self._wall - start
        slowness = (self._wall - start) / REFERENCE_NOMINAL_S
        self._slowness = (
            slowness
            if not self.probes
            else SMOOTHING * slowness + (1.0 - SMOOTHING) * self._slowness
        )
        self._slowness_sum += slowness
        self.probes += 1

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` wall seconds have passed since
        the last probe; called between serving steps."""
        if clock() - self._wall >= PROBE_EVERY_S:
            self.probe()

    @property
    def slowness(self) -> float:
        """Mean slowness over the probes so far: above 1 on a machine
        slower than nominal."""
        return self._slowness_sum / self.probes
