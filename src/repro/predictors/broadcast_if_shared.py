"""The Broadcast-If-Shared predictor (paper Table 3, column 2).

Targets latency: a single 2-bit saturating counter per entry decides
between broadcasting (block predicted shared) and the minimal set.
The counter is incremented on requests and responses from other
processors and decremented on responses from memory.
"""

from __future__ import annotations

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, MEMORY_NODE, NodeId
from repro.predictors.base import DestinationSetPredictor, PredictorTable

_COUNTER_MAX = 3  # 2-bit saturating counter


class _CounterEntry:
    """One 2-bit saturating counter."""

    __slots__ = ("counter",)

    def __init__(self) -> None:
        self.counter = 0

    def increment(self) -> None:
        if self.counter < _COUNTER_MAX:
            self.counter += 1

    def decrement(self) -> None:
        if self.counter > 0:
            self.counter -= 1


class BroadcastIfSharedPredictor(DestinationSetPredictor):
    """Broadcast when the block appears shared, minimal set otherwise."""

    policy_name = "broadcast-if-shared"

    def __init__(self, n_nodes: int, config: PredictorConfig):
        super().__init__(n_nodes, config)
        self._table: PredictorTable[_CounterEntry] = PredictorTable(
            config, _CounterEntry
        )
        self._empty = DestinationSet.empty(n_nodes)
        self._broadcast = DestinationSet.broadcast(n_nodes)

    # ------------------------------------------------------------------
    def predict_key(
        self, key: int, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        entry = self._table.lookup(key)
        if entry is not None and entry.counter > 1:
            return self._broadcast
        return self._empty

    def train_response_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        table = self._table
        entry = (
            table.lookup_allocate(key) if allocate else table.lookup(key)
        )
        if entry is None:
            return
        if responder == MEMORY_NODE and not allocate:
            # Memory satisfied the minimal set: block looks unshared.
            if entry.counter > 0:
                entry.counter -= 1
        else:
            # Another cache responded, or the transaction needed other
            # processors even though memory supplied/acked the data
            # (e.g. an upgrade invalidating sharers): block is shared.
            if entry.counter < _COUNTER_MAX:
                entry.counter += 1

    def train_external_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        # "incremented on requests and responses from other
        # processors" (Section 3.3) — any external request signals
        # sharing, reads included.
        entry = self._table.lookup(key)
        if entry is not None and entry.counter < _COUNTER_MAX:
            entry.counter += 1

    # ------------------------------------------------------------------
    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        return self.predict_key(
            self._table.key_for(address, pc), address, pc, access
        )

    def train_response(
        self,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        self.train_response_key(
            self._table.key_for(address, pc),
            address, pc, responder, access, allocate,
        )

    def train_external(
        self,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        self.train_external_key(
            self._table.key_for(address, pc),
            address, pc, requester, access,
        )

    # ------------------------------------------------------------------
    def entry_bits(self) -> int:
        return 2

    def stats(self) -> dict:
        self._materialise()
        return {
            "entries": self._table.occupancy(),
            "allocations": self._table.n_allocations,
            "evictions": self._table.n_evictions,
        }
