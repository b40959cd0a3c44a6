"""Network parameters (paper §4.1 and §6.1).

The paper measured PVM over Ethernet at a one-way latency of 2414.5 us
and a bandwidth of 0.96 MB/s.  The simulated transport splits that
latency into a sender-side software overhead, a wire/propagation term on
the shared bus, and a receiver-side software overhead (the paper notes
the bandwidth figure "includes the cost of packing, receiving, and the
real communication time").  The receive overhead is slightly larger than
the send overhead, which is what makes all-to-one more expensive than
one-to-all in Figure 4: the single receiver's protocol stack serializes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkParameters", "PAPER_LATENCY_S", "PAPER_BANDWIDTH_BPS",
           "transfer_seconds"]

#: Measured PVM latency from the paper (§6.1), seconds.
PAPER_LATENCY_S = 2414.5e-6
#: Measured PVM bandwidth from the paper (§6.1), bytes/second.
PAPER_BANDWIDTH_BPS = 0.96e6


def transfer_seconds(latency: float, bandwidth: float, nbytes: float,
                     n_messages: int = 1) -> float:
    """The one transfer-time formula: ``n_messages * L + nbytes / B``.

    Every latency/bandwidth cost in the repo routes through here — the
    DES wire time, the §4.2 data-movement term, the redistribution
    planner's movement-cost estimate — so the model cannot drift apart
    across layers.  Takes scalars (not a :class:`NetworkParameters`)
    because the process/socket backends ship ``(L, B)`` pairs over the
    wire to workers that never see a parameters object.
    """
    return n_messages * latency + nbytes / bandwidth


@dataclass(frozen=True)
class NetworkParameters:
    """Transport cost parameters for the shared-bus network.

    ``send_overhead + wire_latency + recv_overhead`` is the one-way
    single-byte message latency ``L`` of the paper's model; the defaults
    reproduce the measured 2414.5 us.
    """

    send_overhead: float = 1000.0e-6
    recv_overhead: float = 1200.0e-6
    wire_latency: float = 214.5e-6
    bandwidth: float = PAPER_BANDWIDTH_BPS
    local_overhead: float = 50.0e-6  # same-host delivery (LB co-located)

    def __post_init__(self) -> None:
        if min(self.send_overhead, self.recv_overhead, self.wire_latency,
               self.local_overhead) < 0:
            raise ValueError("overheads must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def latency(self) -> float:
        """End-to-end one-way latency ``L`` (seconds) for a tiny message."""
        return self.send_overhead + self.wire_latency + self.recv_overhead

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended one-way time for an ``nbytes`` message: L + n/B."""
        return transfer_seconds(self.latency, self.bandwidth, nbytes)

    def wire_time(self, nbytes: int) -> float:
        """Time a frame occupies one wire/link: wire_latency + n/B
        (excludes both endpoints' NIC overheads)."""
        return transfer_seconds(self.wire_latency, self.bandwidth, nbytes)
