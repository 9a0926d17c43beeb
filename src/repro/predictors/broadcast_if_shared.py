"""The Broadcast-If-Shared predictor (paper Table 3, column 2).

Targets latency: a single 2-bit saturating counter per entry decides
between broadcasting (block predicted shared) and the minimal set.
The counter is incremented on requests and responses from other
processors and decremented on responses from memory.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.destset import DestinationSet, full_mask
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, MEMORY_NODE, NodeId
from repro.predictors.base import (
    DestinationSetPredictor,
    FusedKernel,
    PredictorTable,
)

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
    def train_external_batch(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
        count: int,
    ) -> None:
        # ``count`` saturating increments collapse to one clamped add.
        entry = self._table.lookup(key)
        if entry is not None:
            total = entry.counter + count
            entry.counter = total if total < _COUNTER_MAX else _COUNTER_MAX

    # ------------------------------------------------------------------
    @classmethod
    def fused_kernel(
        cls, predictors: "Sequence[BroadcastIfSharedPredictor]"
    ) -> Optional[FusedKernel]:
        tables = [p._table for p in predictors]
        entries_l = [t._entries for t in tables]
        stamps_l = [t._stamps for t in tables]
        ticks = [t._tick for t in tables]
        bounded = tables[0]._bounded
        broadcast = full_mask(predictors[0].n_nodes)
        MEM = MEMORY_NODE
        cmax = _COUNTER_MAX
        scratch = [None]

        def predict(requester, key, address, code):
            entry = entries_l[requester].get(key)
            scratch[0] = entry
            if entry is None:
                return 0
            if bounded:
                stamps_l[requester][key] = ticks[requester]
                ticks[requester] += 1
            if entry.counter > 1:
                return broadcast
            return 0

        def train_response(requester, key, address, responder, code,
                           allocate):
            entry = scratch[0]
            if entry is None:
                if not allocate:
                    return
                table = tables[requester]
                table._tick = ticks[requester]
                entry = table.lookup_allocate(key)
                ticks[requester] = table._tick
            if responder == MEM and not allocate:
                if entry.counter > 0:
                    entry.counter -= 1
            elif entry.counter < cmax:
                entry.counter += 1

        def train_external(mask, key, address, requester, code, count):
            while mask:
                low = mask & -mask
                mask ^= low
                node = low.bit_length() - 1
                entry = entries_l[node].get(key)
                if entry is None:
                    continue
                if bounded:
                    stamps_l[node][key] = ticks[node]
                    ticks[node] += 1
                total = entry.counter + count
                entry.counter = total if total < cmax else cmax

        def sync():
            for table, tick in zip(tables, ticks):
                table._tick = tick

        return FusedKernel(
            predict, train_response, train_external, None, sync
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
