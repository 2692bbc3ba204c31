"""Network-service workload (the paper's §8 future work).

"As future work, we aim to further refine paratick and test it in more
diverse scenarios, focusing on high-performance I/O applications."

A request/response service: each worker thread issues synchronous RPCs
over the VM's NIC and does a fixed amount of request processing between
calls — the structure of a key-value store client, an RPC proxy or a
microservice tier. Round trips on datacenter networks last tens of
microseconds (§3.3 cites "Attack of the killer microseconds"), so every
request is one of the brief idle periods whose timer management paratick
removes. The extension benchmark sweeps link generations to show the
benefit growing with network speed, the same trend §6.3 demonstrates
for storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import WorkloadError
from repro.guest.task import NetRequest, Run, Task
from repro.hw.nic import DATACENTER_10G, NicProfile
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.guest.kernel import GuestKernel


class NetServiceWorkload(Workload):
    """RPC-style service: N workers, blocking round trips.

    Args:
        workers: worker threads (one per vCPU).
        requests: RPCs issued per worker.
        request_bytes: payload per RPC.
        think_cycles: processing between RPCs (service work per request).
        profile: NIC/link profile (sweep this for the generation study).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        requests: int = 500,
        request_bytes: int = 2048,
        think_cycles: int = 40_000,
        profile: NicProfile = DATACENTER_10G,
    ):
        if workers <= 0 or requests <= 0:
            raise WorkloadError("workers and requests must be positive")
        if think_cycles < 0:
            raise WorkloadError("think_cycles must be >= 0")
        self.workers = workers
        self.requests = requests
        self.request_bytes = request_bytes
        self.think_cycles = think_cycles
        self.profile = profile
        self.nic_profile = profile
        self.name = f"netserve.w{workers}"

    def default_vcpus(self) -> int:
        return self.workers

    def build(self, kernel: GuestKernel) -> list[Task]:
        def body() -> Generator:
            for _ in range(self.requests):
                yield NetRequest(self.request_bytes)
                yield Run(self.think_cycles)

        tasks = [Task(f"{self.name}.t{i}", body(), affinity=i) for i in range(self.workers)]
        for t in tasks:
            kernel.add_task(t)
        return tasks
