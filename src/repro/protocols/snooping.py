"""MOSI broadcast snooping on a totally-ordered interconnect.

Every request is broadcast to all processors, so no request ever
indirects: the owner (a cache or memory) responds directly.  The price
is end-point bandwidth proportional to the processor count — the
paper's maximal destination set.
"""

from __future__ import annotations

from typing import Optional

from repro import kernels
from repro.common.types import MEMORY_NODE
from repro.protocols.base import (
    CoherenceProtocol,
    LatencyClass,
    OutcomeColumns,
    RequestOutcome,
)
from repro.trace.record import TraceRecord
from repro.trace.trace import Trace


class BroadcastSnoopingProtocol(CoherenceProtocol):
    """The latency-optimal, bandwidth-hungry baseline."""

    name = "broadcast-snooping"

    def _handle(self, record: TraceRecord) -> RequestOutcome:
        coherence = self.state.apply(record)
        if coherence.responder == MEMORY_NODE:
            latency_class = LatencyClass.MEMORY
        else:
            latency_class = LatencyClass.CACHE_TO_CACHE_DIRECT
        return RequestOutcome(
            coherence=coherence,
            # Broadcast: delivered to every node but the requester.
            request_messages=self.config.n_processors - 1,
            forward_messages=0,
            retry_messages=0,
            data_messages=1,
            indirection=False,
            latency_class=latency_class,
        )

    def _run_columns(
        self, trace: Trace, out: Optional[OutcomeColumns] = None
    ) -> None:
        """Columnar replay: the native snooping mode when it applies.

        Subclasses that override ``_handle_fast`` keep the Python loop.
        """
        if (
            type(self)._handle_fast
            is BroadcastSnoopingProtocol._handle_fast
            and kernels.try_baseline_replay(self, trace, out)
        ):
            return
        super()._run_columns(trace, out)

    def _handle_fast(self, address, pc, requester, code, block):
        responder = self.state.apply_fast(block, requester, code)[2]
        latency_ns = (
            self._lat_memory if responder == MEMORY_NODE
            else self._lat_direct
        )
        return (
            self.config.n_processors - 1, 0, 0, 1, 0, latency_ns, 0,
        )
