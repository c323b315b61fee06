"""Host speed reference: a fixed pure-Python kernel timed around each iteration.

The shared host the benchmark runs on changes speed by up to 1.8x for
spells of a few seconds, and process CPU time slows with it (the host
steals no time; the CPU itself runs slower), so neither host time nor
CPU time of one run compares with another run's. The reference kernel
does the same kind of work as the simulator (heap pushes and pops of
event tuples, small objects, dict updates, method calls) and does not
depend on the program, so a change to the program leaves it alone.

A run times a block of reference kernels before its first iteration
and after every iteration, on as many processes at once as the
workload keeps busy: one for an in-process population, one per shard
worker for a sharded one (the two vCPUs of a 2-vCPU VM slow each other and are
slowed by the host in ways a single process does not see). An
iteration's host seconds divided by the mean kernel time of the blocks
on either side of it, times ``REF_S``, read as seconds on a host where
one kernel takes ``REF_S``.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import statistics
import time
from typing import Any

#: Nominal time of one reference kernel, in seconds. Scaled timings
#: are host seconds on a host on which the kernel takes exactly this
#: long (a shared 2-vCPU VM runs it in 0.024-0.06 s).
REF_S = 0.03

#: Kernel size: events pushed through the heap.
REF_EVENTS = 20_000

#: Each block lasts about this share of the iteration's host time, and
#: holds at least ``BLOCK_KERNELS`` kernels per process.
BLOCK_SHARE = 0.2
BLOCK_KERNELS = 4


class _Event:
    __slots__ = ("t", "kind", "n")

    def __init__(self, t: float, kind: int, n: int) -> None:
        self.t = t
        self.kind = kind
        self.n = n

    def key(self) -> tuple[str, int]:
        return ("kind", self.kind)


def reference_kernel(events: int = REF_EVENTS) -> int:
    """A fixed discrete-event-like loop; returns a checksum."""
    heap: list[tuple[float, int, _Event]] = []
    counts: dict[tuple[str, int], int] = {}
    t = 0.0
    x = 12345
    for seq in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (t + (x % 1000) * 1e-3, seq,
                              _Event(t, x & 15, seq)))
        if len(heap) > 256:
            t, _, ev = heapq.heappop(heap)
            key = ev.key()
            counts[key] = counts.get(key, 0) + len(str(ev.n))
    return sum(counts.values())


def reference_s() -> float:
    """Host seconds of one reference kernel, now."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _kernels(n: int) -> list[float]:
    return [reference_s() for _ in range(n)]


def _helper(conn: Any) -> None:
    """Run ``n`` kernels per request until told to stop or orphaned."""
    try:
        while (n := conn.recv()) is not None:
            conn.send(_kernels(n))
    except (EOFError, KeyboardInterrupt):
        pass


class Reference:
    """Reference blocks on ``processes`` processes at once.

    This process runs one share of each block; ``processes - 1``
    helpers forked at construction run the others and sit blocked on
    their pipe in between, so at most ``processes`` are busy. Use as a
    context manager: leaving it stops and reaps every helper.
    """

    def __init__(self, processes: int = 1) -> None:
        ctx = multiprocessing.get_context("fork")
        self.helpers: list[tuple[Any, Any]] = []
        try:
            for _ in range(processes - 1):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(theirs,),
                                   daemon=True)
                proc.start()
                theirs.close()
                self.helpers.append((proc, ours))
            self.kernel_s = statistics.median(self.block_of(1))
        except BaseException:
            self.close()
            raise

    def block_of(self, n: int) -> list[float]:
        """Host seconds of ``n`` kernels on every process at once."""
        for _, conn in self.helpers:
            conn.send(n)
        times = _kernels(n)
        for _, conn in self.helpers:
            times.extend(conn.recv())
        return times

    def block(self, iteration_s: float) -> list[float]:
        """A block lasting about ``BLOCK_SHARE`` of ``iteration_s``."""
        n = max(BLOCK_KERNELS,
                math.ceil(BLOCK_SHARE * iteration_s / self.kernel_s))
        times = self.block_of(n)
        self.kernel_s = statistics.median(times)
        return times

    def close(self) -> None:
        """Stop and reap every helper."""
        for proc, conn in self.helpers:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
            proc.join(5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.helpers = []

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
