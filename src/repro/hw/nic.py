"""A simple network interface model.

Not part of the paper's headline evaluation (its fio runs are storage),
but §4.2 and §6.3 both argue paratick's benefit grows with
"high-performance NICs"; the `examples/tick_mode_sweep.py` example and
the extension benches use this model to demonstrate that claim.

The model is request/response: ``send`` transmits a message and the
round-trip completion (remote processing + 2x wire latency) arrives via
the completion callback, just like a storage completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.hw.iodev import CompletionFn, IoDevice, IoRequest
from repro.sim.timebase import USEC

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class NicProfile:
    """Round-trip profile of a NIC + peer."""

    #: One-way wire+switch latency.
    wire_ns: int
    #: Remote service time per request.
    remote_service_ns: int
    #: Link bandwidth, bytes/second.
    bandwidth_bps: int
    #: Relative jitter on the round trip.
    jitter: float

    def __post_init__(self) -> None:
        if self.wire_ns < 0 or self.remote_service_ns < 0:
            raise ConfigError("latencies must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if not 0 <= self.jitter < 1:
            raise ConfigError("jitter must be in [0, 1)")


#: A 10GbE datacenter link with a fast peer.
DATACENTER_10G = NicProfile(wire_ns=25 * USEC, remote_service_ns=30 * USEC, bandwidth_bps=1_250_000_000, jitter=0.15)
#: A 100GbE link with kernel-bypass-class peer latency.
DATACENTER_100G = NicProfile(wire_ns=5 * USEC, remote_service_ns=8 * USEC, bandwidth_bps=12_500_000_000, jitter=0.10)


class Nic(IoDevice):
    """Request/response NIC; ``op`` is reused as 'read' (rx-wait) semantics."""

    def __init__(
        self,
        sim: Simulator,
        profile: NicProfile,
        complete_fn: CompletionFn,
        *,
        name: str = "nic0",
    ):
        super().__init__(sim, name, complete_fn)
        self.profile = profile
        self._rng_stream = f"nic.{name}"

    def service_time_ns(self, req: IoRequest) -> int:
        p = self.profile
        rtt = 2 * p.wire_ns + p.remote_service_ns
        rtt += 2 * req.size * 1_000_000_000 // p.bandwidth_bps
        if p.jitter > 0:
            rtt = self.sim.rng.normal_ns(self._rng_stream, rtt, p.jitter * rtt)
        return rtt
