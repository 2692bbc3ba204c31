"""PARSEC benchmark models (paper §6.1–§6.2).

The paper runs PARSEC 3.0 sequentially (Table 2 / Fig. 4) and with
parallelism equal to the vCPU count (Table 3 / Fig. 5). Paratick's
effect depends only on each benchmark's *interaction pattern with the
timer path*: how often threads block/unblock (blocking synchronization),
how imbalanced the work between sync points is (idle-wait lengths), how
much non-timer exit background exists (page faults, I/O phases).

Each benchmark is therefore modelled by a :class:`ParsecProfile`
capturing its published characterization:

* ``sync_kind`` — the dominant primitive: data-parallel **barrier**
  phases (blackscholes, streamcluster, bodytrack, facesim, freqmine),
  fine-grained **lock**-based access (fluidanimate, canneal, raytrace),
  bounded-queue **pipeline** stages (dedup, ferret, vips, x264), or
  **none** (swaptions, embarrassingly parallel).
* ``sync_hz`` — blocking-sync events per thread per second when running
  parallel, the key rate in §3.2's analysis.
* ``imbalance`` — relative spread of inter-sync work, which sets how
  long early arrivers block (the T_idle of §3.2).
* ``fault_hz`` / ``io_read_hz`` — non-timer exit background; this is
  what makes the *relative* exit reduction differ per benchmark
  (Fig. 4a/5a's spread).

Rates are per-thread and deliberately round numbers: we reproduce
*shapes*, and the sensitivity of the headline results to these rates is
itself measured by ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

from repro.config import IoDeviceKind
from repro.errors import WorkloadError
from repro.guest.sync import Barrier, BoundedQueue, CondVar, Mutex
from repro.guest.task import (
    BarrierWait,
    BlockRead,
    CondSignal,
    CondWait,
    MutexLock,
    MutexUnlock,
    PageFault,
    QueueGet,
    QueuePut,
    Run,
    Task,
)
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.guest.kernel import GuestKernel

#: Nominal guest clock used to convert per-second rates into cycles.
NOMINAL_HZ = 2_200_000_000


@dataclass(frozen=True)
class ParsecProfile:
    """Timer-path-relevant characterization of one PARSEC benchmark."""

    name: str
    sync_kind: str  # "barrier" | "lock" | "pipeline" | "none"
    #: Blocking-sync events per thread per second (parallel mode).
    sync_hz: float
    #: Relative spread of work between sync points (lognormal-ish).
    imbalance: float
    #: Critical-section length for lock-based benchmarks (cycles).
    critical_cycles: int
    #: EPT-class exits per thread per second (memory behaviour).
    fault_hz: float
    #: Input-streaming block reads per second (sequential phases too).
    io_read_hz: float
    #: Bytes per streaming read.
    io_read_bytes: int

    def step_cycles(self) -> int:
        """Work between sync points at the nominal clock."""
        if self.sync_hz <= 0:
            return NOMINAL_HZ // 100  # phase length for unsynchronized codes
        return int(NOMINAL_HZ / self.sync_hz)


#: The 13 PARSEC 3.0 benchmarks (§6.1: "13 varied, realistic
#: computation-intensive workloads").
PROFILES: dict[str, ParsecProfile] = {
    "blackscholes": ParsecProfile("blackscholes", "barrier", 40, 0.06, 0, 25, 0, 0),
    "bodytrack": ParsecProfile("bodytrack", "barrier", 2_000, 0.22, 0, 60, 10, 32768),
    "canneal": ParsecProfile("canneal", "lock", 600, 0.10, 9_000, 420, 20, 65536),
    "dedup": ParsecProfile("dedup", "pipeline", 4_000, 0.16, 0, 140, 420, 65536),
    "facesim": ParsecProfile("facesim", "barrier", 1_200, 0.16, 0, 80, 6, 65536),
    "ferret": ParsecProfile("ferret", "pipeline", 2_600, 0.15, 0, 100, 120, 32768),
    "fluidanimate": ParsecProfile("fluidanimate", "lock", 7_000, 0.10, 4_000, 45, 0, 0),
    "freqmine": ParsecProfile("freqmine", "barrier", 300, 0.10, 0, 120, 30, 65536),
    "raytrace": ParsecProfile("raytrace", "lock", 700, 0.12, 6_000, 60, 15, 32768),
    "streamcluster": ParsecProfile("streamcluster", "barrier", 5_000, 0.12, 0, 35, 0, 0),
    "swaptions": ParsecProfile("swaptions", "none", 0, 0.0, 0, 15, 0, 0),
    "vips": ParsecProfile("vips", "pipeline", 1_800, 0.12, 0, 90, 80, 32768),
    "x264": ParsecProfile("x264", "pipeline", 3_200, 0.26, 0, 70, 60, 65536),
}

BENCHMARK_NAMES = tuple(sorted(PROFILES))


def profile(name: str) -> ParsecProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise WorkloadError(f"unknown PARSEC benchmark {name!r}; know {BENCHMARK_NAMES}") from None


class ParsecWorkload(Workload):
    """One PARSEC benchmark, sequential or parallel.

    Args:
        bench: benchmark name.
        threads: parallelism; 1 = the paper's sequential mode.
        target_cycles: per-thread work budget (sets run length).
    """

    def __init__(self, bench: str, *, threads: int = 1, target_cycles: int = 700_000_000):
        self.profile = profile(bench)
        if threads <= 0:
            raise WorkloadError("threads must be positive")
        if target_cycles <= 0:
            raise WorkloadError("target_cycles must be positive")
        self.threads = threads
        self.target_cycles = target_cycles
        self.name = f"parsec.{bench}" + ("" if threads == 1 else f".p{threads}")
        self.io_device = IoDeviceKind.SATA_SSD if self.profile.io_read_hz > 0 else None
        step_s = self.profile.step_cycles() / NOMINAL_HZ
        #: (whole, fractional) faults and streaming reads per step.
        self._faults = _per_step(self.profile.fault_hz, step_s)
        self._reads = _per_step(self.profile.io_read_hz, step_s)

    def default_vcpus(self) -> int:
        return self.threads

    # ------------------------------------------------------------- building

    def build(self, kernel: GuestKernel) -> list[Task]:
        p = self.profile
        steps = max(1, self.target_cycles // p.step_cycles())
        if self.threads == 1 or p.sync_kind == "none":
            tasks = [
                Task(
                    f"{self.name}.t{i}",
                    self._unsync_body(kernel, i, steps),
                    affinity=i,
                )
                for i in range(self.threads)
            ]
        elif p.sync_kind == "barrier":
            barrier = Barrier(self.threads, name=f"{self.name}.bar")
            tasks = [
                Task(f"{self.name}.t{i}", self._barrier_body(kernel, i, steps, barrier), affinity=i)
                for i in range(self.threads)
            ]
        elif p.sync_kind == "lock":
            # Fine-grained-locking codes block when a needed element is
            # held by a neighbour; modelled as neighbour hand-offs (see
            # _lock_body) so the *blocking* rate matches sync_hz.
            conds = [CondVar(f"{self.name}.cv{j}") for j in range(self.threads)]
            locks = [Mutex(f"{self.name}.m{j}") for j in range(max(1, self.threads // 2))]
            tasks = [
                Task(f"{self.name}.t{i}", self._lock_body(kernel, i, steps, locks, conds), affinity=i)
                for i in range(self.threads)
            ]
        elif p.sync_kind == "pipeline":
            queues = [BoundedQueue(2, name=f"{self.name}.q{j}") for j in range(self.threads - 1)]
            tasks = [
                Task(f"{self.name}.t{i}", self._pipeline_body(kernel, i, steps, queues), affinity=i)
                for i in range(self.threads)
            ]
        else:  # pragma: no cover - profile table is closed
            raise WorkloadError(f"unknown sync kind {p.sync_kind!r}")
        for t in tasks:
            kernel.add_task(t)
        return tasks

    # ---------------------------------------------------------------- bodies

    def _work(self, kernel: GuestKernel, thread: int) -> Callable[[], int]:
        """Draws of one thread's jittered inter-sync work (the imbalance
        that creates waits). The thread's RNG stream is resolved once;
        its seed derives from its name, so the draws do not depend on
        when it is resolved."""
        p = self.profile
        base = p.step_cycles()
        if p.imbalance <= 0:
            return lambda: base
        normal = kernel.sim.rng.stream(f"{self.name}.work{thread}").normal
        sd = p.imbalance * base
        return lambda: max(1000, int(normal(base, sd)))

    def _background(self, step: int) -> list:
        """Faults and input-streaming reads of one step, spread
        deterministically. A list, so the usual empty step builds no
        generator; the bodies may ``yield from`` it because the kernel
        sends no value back for these ops."""
        ops = []
        count = _spread(self._faults, step)
        if count:
            ops.append(PageFault(count))
        reads = _spread(self._reads, step)
        if reads:
            ops += [BlockRead(self.profile.io_read_bytes) for _ in range(reads)]
        return ops

    def _unsync_body(self, kernel: GuestKernel, thread: int, steps: int) -> Generator:
        work = self._work(kernel, thread)
        for step in range(steps):
            yield Run(work())
            yield from self._background(step)

    def _barrier_body(self, kernel: GuestKernel, thread: int, steps: int, barrier: Barrier) -> Generator:
        work = self._work(kernel, thread)
        for step in range(steps):
            yield Run(work())
            yield from self._background(step)
            yield BarrierWait(barrier)

    def _lock_body(
        self, kernel: GuestKernel, thread: int, steps: int, locks: list[Mutex], conds: list
    ) -> Generator:
        """Fine-grained locking with data dependencies (fluidanimate,
        canneal, raytrace): work a cell, take the lock guarding the
        shared boundary, then *wait for the neighbour's hand-off* before
        the next step — each step therefore blocks once per thread, at
        sync_hz, like the cell-boundary dependencies of the real codes.
        The neighbour pairing alternates direction so waits are mutual.
        """
        p = self.profile
        work = self._work(kernel, thread)
        n = self.threads
        partner = thread ^ 1 if (thread ^ 1) < n else thread
        my_cv = conds[thread]
        partner_cv = conds[partner]
        m = locks[(thread // 2) % len(locks)]
        solo = partner == thread
        for step in range(steps):
            yield Run(work())
            yield from self._background(step)
            yield MutexLock(m)
            yield Run(p.critical_cycles)
            yield MutexUnlock(m)
            if not solo:
                yield CondSignal(partner_cv, 1)
                yield CondWait(my_cv)

    def _pipeline_body(self, kernel: GuestKernel, thread: int, steps: int, queues: list) -> Generator:
        """Linear stage pipeline (dedup/ferret/x264 structure).

        Stage 0 produces one item per step; interior stages hand items
        through bounded queues; the last stage consumes. Work jitter plus
        finite queues makes stages block and unblock at ~sync_hz — the
        microsecond idle periods of §3.2.
        """
        work = self._work(kernel, thread)
        nstages = self.threads
        first = thread == 0
        last = thread == nstages - 1
        for step in range(steps):
            if first:
                item = step
            else:
                item = yield QueueGet(queues[thread - 1])
            yield Run(work())
            yield from self._background(step)
            if not last:
                yield QueuePut(queues[thread], item)


def _per_step(hz: float, step_s: float) -> tuple[int, float]:
    """Events per step at ``hz``, as (whole, fractional) parts."""
    if hz <= 0:
        return 0, 0.0
    expected = hz * step_s
    whole = int(expected)
    return whole, expected - whole


def _spread(per_step: tuple[int, float], step: int) -> int:
    """Events in ``step``: the fractional part lands on a deterministic
    subset of steps, so the long-run rate is exact."""
    whole, frac = per_step
    return whole + (1 if frac > 0 and (step * frac) % 1.0 < frac else 0)


def benchmark(name: str, *, threads: int = 1, target_cycles: int = 700_000_000) -> ParsecWorkload:
    """Convenience constructor used throughout the examples and benches."""
    return ParsecWorkload(name, threads=threads, target_cycles=target_cycles)
