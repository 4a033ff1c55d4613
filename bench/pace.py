"""Machine speed, measured next to the program, to scale its times to a nominal speed.

The measuring machine is a virtual machine shared with other tenants.
For minutes at a time it runs every piece of code up to 1.7 times as
slow, without descheduling the process (its CPU time grows as fast as
wall time), so a slow phase shows in every timing of a run alike and no
statistic within the run can remove it.  It changes much less the
ratio of the program's time to the time of fixed work run right next to
it.  So a run interleaves short chunks of fixed pure-Python work with the
program's jobs, a tenth of their time in all and spread over the pass as
the jobs' time is, so that they sample the machine's speed as the jobs do, and reports each time scaled
by ``CHUNK_NOMINAL_S`` over the chunks' mean time in the same pass:
seconds at the speed at which one chunk takes ``CHUNK_NOMINAL_S``.  The
chunks do not touch the library, so a faster or slower library moves the
scaled times as much as the raw ones.
"""

from __future__ import annotations

import math
from time import perf_counter

# Size of one chunk, and about its time on the quiet machine (an Intel
# Xeon, 2 vCPUs, Python 3.11).  The constant only sets the scale.
CHUNK_ITERATIONS = 6_000
CHUNK_REDUCTIONS = 8
CHUNK_NOMINAL_S = 0.0025
# Nominal chunk time as a share of job time.
CHUNK_SHARE = 0.1


def chunk() -> float:
    """Run one chunk of fixed work and return its wall time in seconds.

    The work is the library's common mix, about half each: an interpreted
    loop of float arithmetic, calls into ``math``, dictionary stores and
    list appends, and C loops over a list (``fsum`` and ``sorted``).  A
    chunk of only the first kind is slowed more than the library by a slow
    phase, one of only the second kind less.
    """
    t0 = perf_counter()
    acc = 0.0
    table = {}
    row = []
    for i in range(1, CHUNK_ITERATIONS):
        x = math.sin(i) / (i * i)
        acc += x
        table[i & 63] = acc
        row.append(x)
    squares = [1.0 / (i * i) for i in range(1, CHUNK_ITERATIONS)]
    for _ in range(CHUNK_REDUCTIONS):
        math.fsum(squares)
        sorted(squares)
    return perf_counter() - t0


class Gauge:
    """Runs chunks between the jobs of one pass: after each job, as many
    whole chunks as keep their nominal time at ``CHUNK_SHARE`` of the job
    time so far.  Short jobs thus mostly run back to back, as they would
    without the gauge, and the first job of a pass is always followed by
    at least one chunk."""

    def __init__(self) -> None:
        self.owed_s = CHUNK_NOMINAL_S

    def __call__(self, job_s: float) -> list[float]:
        """Run the chunks due after a job of ``job_s`` seconds; their times."""
        self.owed_s += CHUNK_SHARE * job_s
        count = int(self.owed_s / CHUNK_NOMINAL_S)
        self.owed_s -= count * CHUNK_NOMINAL_S
        return [chunk() for _ in range(count)]


def slowdown(chunk_s: list[list[float]]) -> float:
    """How many times slower than nominal the machine ran the chunks, given
    in groups (one per job, possibly empty)."""
    flat = [t for group in chunk_s for t in group]
    return sum(flat) / (len(flat) * CHUNK_NOMINAL_S)
