"""Host-speed sampling, to report times at a fixed reference speed.

On a shared host the CPU runs the same code at speeds up to 1.7x apart,
in spells from a fraction of a second to minutes, so a whole run can sit
in a slow spell.  While a ``Sampler`` runs, a wall-clock interval timer
interrupts the program every ``INTERVAL_S`` and times the two kernels of
a ``Probe``, fixed units of interpreter work of the kinds the simulator
does.  A stretch of the program's time is then converted to reference
seconds::

    reference = (time - probe time inside it) * sqrt(speed_compute * speed_memory)
    speed_k = mean(REFERENCE_S[k] / time of kernel k)

over the probes taken inside the stretch: about the time the stretch
would have taken on a host where the kernels run in ``REFERENCE_S``.
CPU time is converted with the kernels' CPU times instead.  The probe
never changes with the program, so a commit that makes the program
slower makes these times longer by the same factor.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

#: Wall seconds between probes.
INTERVAL_S = 0.01
#: Each probe kernel's time on the reference host (a shared 2.1 GHz Xeon
#: VM, harmonic mean over a run); they make reference seconds read close
#: to that host's wall seconds.
REFERENCE_S = {"compute": 0.000125, "memory": 0.00014}


class _Node:
    __slots__ = ("count", "weight", "key", "next")


class Probe:
    """Two fixed units of interpreter work whose times gauge host speed.

    ``compute()`` runs in the core's caches: small dict and list updates
    and integer arithmetic.  ``memory()`` follows object references and
    looks up dict entries across a working set of several MB.  A host
    state that slows the core (frequency, a busy sibling thread) slows
    the first more than the simulator, and one that slows memory access
    slows the second more.  The simulator does both kinds of work, so its
    speed is taken as the geometric mean of the two (the README gives the
    fit behind that choice).
    """

    NODES = 1 << 16
    STEPS = 150
    ROUNDS = 300

    def __init__(self):
        nodes = []
        for i in range(self.NODES):
            node = _Node()
            node.count, node.weight = 0, 3 * i
            node.key = (i * 2654435761) & 0xFFFFF
            nodes.append(node)
        for i, node in enumerate(nodes):
            node.next = nodes[(i * 7919 + 13) % self.NODES]
        self.nodes = nodes
        self.table = {node.key: node for node in nodes}
        self.start = 0

    def compute(self) -> int:
        table = {}
        queue = []
        acc = 0
        for i in range(self.ROUNDS):
            key = i & 63
            table[key] = table.get(key, 0) + i
            if i % 3 == 0:
                queue.append(i)
            elif queue:
                queue.pop()
            acc += key * 3 ^ (i >> 2)
        return acc

    def memory(self) -> int:
        """Walk ``STEPS`` nodes on from where the last walk stopped."""
        node = self.nodes[self.start]
        table = self.table
        acc = 0
        for _ in range(self.STEPS):
            node.count += 1
            acc += table.get(node.key, node).weight
            node = node.next
        self.start = (self.start + 40503) % self.NODES
        return acc


class RawClock:
    """Times as measured: the interface of ``Sampler``, converting nothing."""

    @contextlib.contextmanager
    def running(self):
        yield self

    def reference(self, start: float, end: float, used: float | None = None,
                  cpu: bool = False) -> float:
        return end - start if used is None else used


class Sampler(RawClock):
    """Probe samples taken by a ``SIGALRM`` interval timer.

    Only one sampler may run at a time (the process has one timer).
    Each sample records the ``perf_counter`` reading at its start and the
    wall and CPU time of both probe kernels.
    """

    def __init__(self, probe: Probe, interval: float = INTERVAL_S):
        self.probe = probe
        self.interval = interval
        self.starts: list[float] = []
        # kernel -> [wall times], [CPU times]
        self.walls = {"compute": [], "memory": []}
        self.cpus = {"compute": [], "memory": []}

    def _sample(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        for kernel in ("compute", "memory"):
            c0 = time.thread_time()
            t0 = time.perf_counter()
            getattr(self.probe, kernel)()
            t1 = time.perf_counter()
            self.cpus[kernel].append(time.thread_time() - c0)
            self.walls[kernel].append(t1 - t0)

    @contextlib.contextmanager
    def running(self):
        """Sample while the block runs; restore the signal state after."""
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def reference(self, start: float, end: float, used: float | None = None,
                  cpu: bool = False) -> float:
        """``used`` seconds spent in ``[start, end)``, in reference seconds.

        ``used`` is the window's wall time by default, or the CPU time
        spent in it with ``cpu``.  The probes' own time inside the window
        is taken out, and the rest scaled by the host's speed over those
        probes (over every probe, if none falls inside).
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        times = self.cpus if cpu else self.walls
        work = (end - start if used is None else used) - sum(
            sum(t[lo:hi]) for t in times.values()
        )
        if lo == hi:
            lo, hi = 0, len(self.starts)
        if lo == hi:
            raise RuntimeError("no host-speed samples were taken")
        speed = 1.0
        for kernel, ref in REFERENCE_S.items():
            speed *= sum(ref / t for t in times[kernel][lo:hi]) / (hi - lo)
        return max(0.0, work) * math.sqrt(speed)
