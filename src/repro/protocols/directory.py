"""A bandwidth-efficient MOSI directory protocol (GS320-style).

Requests go only to the home node; the directory forwards to the owner
and/or sharers when other processors must observe the request.  The
totally-ordered interconnect eliminates explicit acknowledgment
messages (as in the AlphaServer GS320 the paper models), so forwards
and invalidations are the only extra control traffic.

Latency: misses satisfied by memory with no forwarding complete in the
2-hop memory latency; misses that the directory must forward to a
cache pay the 3-hop indirection latency.
"""

from __future__ import annotations

from repro.common.destset import popcount
from repro.common.types import MEMORY_NODE, home_node
from repro.protocols.base import (
    CoherenceProtocol,
    LatencyClass,
    RequestOutcome,
)
from repro.trace.record import TraceRecord


class DirectoryProtocol(CoherenceProtocol):
    """The bandwidth-optimal, indirection-prone baseline."""

    name = "directory"

    def _handle(self, record: TraceRecord) -> RequestOutcome:
        coherence = self.state.apply(record)
        home = home_node(
            record.address, self.config.n_processors, self.config.block_size
        )
        # The request itself: one message to the home (free if the
        # requester is its own home node).
        request_messages = 0 if home == record.requester else 1
        # Forwards/invalidations: one per processor that must observe.
        forward_messages = coherence.required.count()

        if coherence.responder == MEMORY_NODE:
            # Data from memory.  Pure 2-hop when nothing was forwarded;
            # invalidation-only GETX still gets its data in 2 hops on
            # this totally-ordered network (no acks), but counts as an
            # indirection for the sharing metric.
            latency_class = LatencyClass.MEMORY
        else:
            latency_class = LatencyClass.INDIRECT
        return RequestOutcome(
            coherence=coherence,
            request_messages=request_messages,
            forward_messages=forward_messages,
            retry_messages=0,
            data_messages=1,
            indirection=coherence.directory_indirection,
            latency_class=latency_class,
        )

    def _handle_fast(self, address, pc, requester, code, block):
        responder, required = self._state.apply_fast(
            block, requester, code
        )[2:]
        home = (block >> self._block_shift) % self.config.n_processors
        latency_ns = (
            self._lat_memory if responder == MEMORY_NODE
            else self._lat_indirect
        )
        return (
            0 if home == requester else 1,
            popcount(required),
            0,
            1,
            1 if required else 0,
            latency_ns,
            0,
        )
