"""The system-level timing simulator (Figures 7 and 8).

Drives a coherence protocol with a trace, pacing each processor by its
instruction gaps, costing each transaction with the Table 4 latency
model, and adding the interconnect model's queueing/serialization/hop
delays.  Records in the shared trace are processed in trace order (the
total order the interconnect would impose); per-node clocks advance
independently.

The interconnect is pluggable: ``SystemConfig.interconnect`` selects a
model from :mod:`repro.timing.registry` (the paper's crossbar by
default), or an instance can be injected directly.  Both timing loops
— the record-oriented reference loop and the columnar two-pass engine
— consume the model through the same :meth:`Interconnect.acquire`
call, so every registered model works on both paths; under the native
backend the crossbar with either processor model additionally takes
a compiled pass (:func:`repro.kernels.try_timing_pass`), kept
operation-identical to the generic loop.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro import kernels
from repro.common.params import SystemConfig
from repro.protocols.base import CoherenceProtocol, OutcomeColumns
from repro.timing.interconnect import CrossbarInterconnect, Interconnect
from repro.timing.processor import (
    DetailedProcessorModel,
    ProcessorModel,
    SimpleProcessorModel,
)
from repro.timing.registry import create_interconnect
from repro.trace.trace import Trace


@dataclasses.dataclass(frozen=True)
class RuntimeResult:
    """Outcome of one timing simulation."""

    protocol: str
    workload: str
    runtime_ns: float
    misses: int
    traffic_bytes: int
    indirection_pct: float
    average_latency_ns: float
    queue_ns_per_miss: float

    @property
    def traffic_bytes_per_miss(self) -> float:
        """Interconnect bytes per miss (Fig 7/8 x-axis, unnormalized)."""
        return self.traffic_bytes / self.misses if self.misses else 0.0


def _make_processor(model: str, max_outstanding: int) -> ProcessorModel:
    if model == "simple":
        return SimpleProcessorModel()
    if model == "detailed":
        return DetailedProcessorModel(max_outstanding)
    raise ValueError(f"unknown processor model {model!r}")


class TimingSimulator:
    """Executes a miss trace against a protocol with timing."""

    def __init__(
        self,
        config: SystemConfig,
        protocol: CoherenceProtocol,
        processor_model: str = "simple",
        max_outstanding: int = 4,
        interconnect: Optional[Interconnect] = None,
    ):
        self.config = config
        self.protocol = protocol
        self.processor_model = processor_model
        self.processors: List[ProcessorModel] = [
            _make_processor(processor_model, max_outstanding)
            for _ in range(config.n_processors)
        ]
        self.interconnect = (
            interconnect
            if interconnect is not None
            else create_interconnect(config)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Trace,
        warmup_fraction: float = 0.25,
        columnar: bool = True,
    ) -> RuntimeResult:
        """Simulate ``trace``; timing measured after the warmup prefix.

        The warmup prefix trains protocol state and predictors without
        advancing the clocks, so runtimes compare steady-state behaviour
        (the paper warms caches and predictors from traces before its
        timing runs).  ``columnar=False`` forces the record-oriented
        loop (used to cross-check the columnar engine).
        """
        n_warmup = int(len(trace) * warmup_fraction)
        warmup, measured = trace.split_warmup(n_warmup)
        self.protocol.run(warmup if columnar else list(warmup))
        self.protocol.reset_totals()

        if (
            columnar
            and isinstance(measured, Trace)
            and self.protocol._fast_ok
        ):
            self._run_columns(measured)
        else:
            self._run_records(measured)

        totals = self.protocol.totals
        runtime = max(p.finish_time() for p in self.processors)
        return self._result(trace, totals, runtime)

    # ------------------------------------------------------------------
    def _run_records(self, measured) -> None:
        """The record-oriented timing loop (reference implementation)."""
        traffic = self.protocol.traffic
        latency = self.protocol.latency
        for record in measured:
            outcome = self.protocol.handle(record)
            processor = self.processors[record.requester]
            processor.compute(record.instructions)
            issue_ns = processor.issue_miss()

            # Bytes crossing the requester's own link: outbound request
            # copies plus the inbound data response.
            request_bytes = (
                outcome.total_request_messages * traffic.control_bytes
            )
            data_bytes = outcome.data_messages * traffic.data_bytes
            link_delay = self.interconnect.acquire(
                record.requester, issue_ns, request_bytes + data_bytes
            )
            base_ns = outcome.latency_class.latency_ns(latency)
            completion = issue_ns + max(base_ns, link_delay)
            processor.complete_miss(completion)

    def _run_columns(self, measured: Trace) -> None:
        """Batched columnar timing: protocol pass, then timing pass.

        Pass one replays the whole measured trace through the
        protocol's batch loop, which folds the traffic totals and
        fills per-record outcome columns (base latency, link transfer
        bytes).  Pass two walks those columns to advance the per-node
        clocks and link occupancy.  The two passes commute because
        protocol state never depends on the clocks.
        """
        protocol = self.protocol
        out = OutcomeColumns()
        protocol._run_columns(measured, out)

        processors = self.processors
        if type(self.interconnect) is CrossbarInterconnect:
            if all(
                type(p) is SimpleProcessorModel
                and p.INSTRUCTIONS_PER_NS
                == SimpleProcessorModel.INSTRUCTIONS_PER_NS
                for p in processors
            ):
                if kernels.try_timing_pass(self, measured, out):
                    return
            elif all(type(p) is DetailedProcessorModel for p in processors):
                if kernels.try_timing_pass_detailed(self, measured, out):
                    return
        _, _, requesters, _, instructions = measured.boxed_columns()
        acquire = self.interconnect.acquire
        for requester, gap, transfer_bytes, base_ns in zip(
            requesters, instructions, out.transfer_bytes, out.latency_ns,
        ):
            processor = processors[requester]
            processor.compute(gap)
            issue_ns = processor.issue_miss()
            # Bytes crossing the requester's own link: outbound request
            # copies plus the inbound data response.
            link_delay = acquire(requester, issue_ns, transfer_bytes)
            completion = issue_ns + (
                base_ns if base_ns > link_delay else link_delay
            )
            processor.complete_miss(completion)

    def _result(
        self, trace: Trace, totals, runtime: float
    ) -> RuntimeResult:
        return RuntimeResult(
            protocol=self.protocol.name,
            workload=trace.name,
            runtime_ns=runtime,
            misses=totals.misses,
            traffic_bytes=totals.traffic_bytes,
            indirection_pct=totals.indirection_pct,
            average_latency_ns=totals.average_latency_ns,
            queue_ns_per_miss=(
                self.interconnect.total_queue_ns / totals.misses
                if totals.misses
                else 0.0
            ),
        )
