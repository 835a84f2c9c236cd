"""The execution-speed probe behind the speed-normalised wall clock.

On the shared two-core VMs this runs on, identical code alternates
between execution-speed regimes up to 40 % apart that persist for
seconds (process CPU time tracks wall: it is speed, not steal), so raw
wall medians of one workload moved by a fifth between back-to-back
runs.  A fixed kernel with the program's instruction mix (dict, set and
tuple churn, small ``pickle.loads``, integer arithmetic) is therefore
timed right before and after every op, and the op's wall time is scaled
by ``NOMINAL_PROBE_NS / probe time around the op`` — the time the op would
have taken on a machine that runs the kernel in exactly the nominal
time.  (Scaling to the run's own fastest probe was tried first: the
fastest probe itself moves by a tenth between runs, and so did the
result.)  Raw wall times are kept next to the normalised ones.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import List, Optional, Sequence

#: The reference speed: a machine on which the probe kernel takes this
#: long.  About the median on the VMs this was sized on, so normalised
#: times read like typical wall times there.
NOMINAL_PROBE_NS = 500_000

_BLOB = pickle.dumps(
    {i: (i, i + 1, frozenset((i, i + 2, i + 3))) for i in range(120)},
    protocol=pickle.HIGHEST_PROTOCOL,
)


def probe_ns() -> int:
    """Wall nanoseconds of one run of the reference kernel (~0.5 ms)."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(700):
        table[(i, i + 1)] = {}
    seen = set()
    for key in table:
        seen.add(key[0])
    adjacency = {n: set() for n in seen}
    for u, v in table:
        adjacency[u].add(v)
    for _ in range(3):
        pickle.loads(_BLOB)
    total = 0
    for i in range(2500):
        total += i * i
    return time.perf_counter_ns() - start


def probes(n: int = 3) -> List[int]:
    """A few probe timings in a row (bracketing something long)."""
    return [probe_ns() for _ in range(n)]


def at_reference_speed(elapsed: float, around: Sequence[int]) -> float:
    """``elapsed`` (any unit) scaled by the probes taken around it."""
    return elapsed * NOMINAL_PROBE_NS / statistics.median(around)


def normalise(
    lat_ns: Sequence[float], probes: Sequence[int],
    fixed_ns: Optional[Sequence[float]] = None,
) -> List[float]:
    """Latencies at the reference speed.  ``probes`` holds one timing
    before each op and one after the last; an op is scaled by
    :data:`NOMINAL_PROBE_NS` over the median of the four probes nearest
    to it (two before, two after: one probe hit by an interrupt must not
    make its op look ten times faster).  ``fixed_ns`` is the part of
    each latency that is waiting on a timer rather than executing (a
    batching window) and is left unscaled."""
    out = []
    for i, lat in enumerate(lat_ns):
        fixed = fixed_ns[i] if fixed_ns is not None else 0.0
        near = probes[max(0, i - 1):i + 3]
        scale = NOMINAL_PROBE_NS / statistics.median(near)
        out.append(fixed + max(0.0, lat - fixed) * scale)
    return out
