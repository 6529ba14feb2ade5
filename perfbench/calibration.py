"""Host-speed calibration: a fixed stdlib-only slice timed next to the work.

The machine this benchmark was written on drifts. Over minutes, the same pass
can take up to twice as long. CPU time follows wall time through it, so the
program is not waiting: the machine is slower. A short slice of the same kinds
of work the workloads do (``Fraction`` and integer matrix products, JSON
round trips), timed just before an item, slows by nearly the same factor.
Five 14-second runs of each workload were measured on one seed. Raw
throughput differed between them by 14% to 32%. After scaling each item by
the slices before it, throughput differed by 4% to 8%.

So each item is timed with a ``Meter``. The meter runs a slice before an item
whenever ``SLICE_EVERY_S`` of item time has passed since the last slice. The
item's latency is then scaled by ``REFERENCE_S`` over the median of the last
``WINDOW`` slices. The result is the time the item would have taken on a host
where one slice takes ``REFERENCE_S``. The raw times are kept beside the
scaled ones. The slice is the same in every version of the program, so a
change to k3ord cannot move it.
"""

import json
import math
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002
SLICE_EVERY_S = 0.025
WINDOW = 3

clock = time.perf_counter

_FRACTIONS = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
    for i in range(7)
]
_INTEGERS = [[(i * 7 + j * 3) % 11 - 5 for j in range(14)] for i in range(14)]
_DOCUMENT = json.dumps({
    "schema": "k3ord/1",
    "payload": {"gram": [[str((i * j) % 7 - 3) for j in range(10)] for i in range(10)]},
})


def slice_seconds() -> float:
    """Seconds for a fixed mix of Fraction, integer and JSON work, the three
    kinds of work the workloads spend their time on."""
    start = clock()
    [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*_FRACTIONS)]
     for row in _FRACTIONS]
    product = _INTEGERS
    for _ in range(2):
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_INTEGERS)]
                   for row in product]
    for _ in range(6):
        doc = json.loads(_DOCUMENT)
        json.dumps(doc, sort_keys=True)
        {f"r{i}": tuple(int(x) for x in row) for i, row in enumerate(doc["payload"]["gram"])}
    return clock() - start


class Meter:
    """Times the items of one pass, each against the slices run just before it."""

    def __init__(self):
        self.raw = []  # item latencies, seconds
        self.scale = []  # REFERENCE_S / local slice time, one per item
        self.slices = []  # every slice time, seconds
        self._since = math.inf

    def item(self, fn, *args, **kwargs):
        """Call fn as one timed item and return its result."""
        if self._since >= SLICE_EVERY_S:
            self.slices.append(slice_seconds())
            self._since = 0.0
        local = statistics.median(self.slices[-WINDOW:])
        start = clock()
        result = fn(*args, **kwargs)
        took = clock() - start
        self._since += took
        self.raw.append(took)
        self.scale.append(REFERENCE_S / local)
        return result

    def latencies(self) -> list:
        """Item latencies at the reference host speed, seconds."""
        return [r * s for r, s in zip(self.raw, self.scale)]

    def pass_seconds(self, wall: float) -> float:
        """A pass's wall time without its slices, at the reference speed: the
        scaled items, plus the time between items scaled by the pass median."""
        between = wall - sum(self.raw) - sum(self.slices)
        return sum(self.latencies()) + between * REFERENCE_S / statistics.median(self.slices)
