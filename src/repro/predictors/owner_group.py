"""The Owner/Group hybrid predictor (paper Section 3.3).

Uses a Group predictor for requests for exclusive and an Owner
predictor for requests for shared.  Because all processors in a stable
sharing set observe all GETX requests, each can track the current
owner, so GETS requests can go to just the predicted owner — cutting
bandwidth below Group while keeping its accuracy on writes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, MEMORY_NODE, NodeId
from repro.predictors.base import DestinationSetPredictor, FusedKernel
from repro.predictors.group import GroupPredictor
from repro.predictors.owner import OwnerPredictor


class OwnerGroupPredictor(DestinationSetPredictor):
    """Group for GETX, Owner for GETS."""

    policy_name = "owner-group"

    def __init__(self, n_nodes: int, config: PredictorConfig):
        super().__init__(n_nodes, config)
        self._owner = OwnerPredictor(n_nodes, config)
        self._group = GroupPredictor(n_nodes, config)

    # ------------------------------------------------------------------
    def predict_key(
        self, key: int, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        if access is AccessType.GETS:
            return self._owner.predict_key(key, address, pc, access)
        return self._group.predict_key(key, address, pc, access)

    def train_response_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        self._owner.train_response_key(
            key, address, pc, responder, access, allocate
        )
        self._group.train_response_key(
            key, address, pc, responder, access, allocate
        )

    def train_external_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        self._owner.train_external_key(key, address, pc, requester, access)
        self._group.train_external_key(key, address, pc, requester, access)

    # ------------------------------------------------------------------
    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        if access is AccessType.GETS:
            return self._owner.predict(address, pc, access)
        return self._group.predict(address, pc, access)

    def train_response(
        self,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        self._owner.train_response(address, pc, responder, access, allocate)
        self._group.train_response(address, pc, responder, access, allocate)

    def train_external(
        self,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        self._owner.train_external(address, pc, requester, access)
        self._group.train_external(address, pc, requester, access)

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
        self._owner.train_external_batch(
            key, address, pc, requester, access, count
        )
        self._group.train_external_batch(
            key, address, pc, requester, access, count
        )

    # ------------------------------------------------------------------
    @classmethod
    def fused_kernel(
        cls, predictors: "Sequence[OwnerGroupPredictor]"
    ) -> Optional[FusedKernel]:
        owners = [p._owner for p in predictors]
        groups = [p._group for p in predictors]
        if any(type(o) is not OwnerPredictor for o in owners):
            return None
        if any(type(g) is not GroupPredictor for g in groups):
            return None
        g0 = groups[0]
        cmax = g0._counter_max
        thr = g0._threshold
        rperiod = g0._rollover_period
        tdown = g0._train_down
        if any(
            g._counter_max != cmax
            or g._threshold != thr
            or g._rollover_period != rperiod
            or g._train_down != tdown
            for g in groups
        ):
            return None
        o_tables = [o._table for o in owners]
        o_entries = [t._entries for t in o_tables]
        o_stamps = [t._stamps for t in o_tables]
        o_ticks = [t._tick for t in o_tables]
        g_tables = [g._table for g in groups]
        g_entries = [t._entries for t in g_tables]
        g_stamps = [t._stamps for t in g_tables]
        g_ticks = [t._tick for t in g_tables]
        bounded = o_tables[0]._bounded
        MEM = MEMORY_NODE

        def _train_group(entry, node):
            # COUPLING: GroupPredictor._train inlined on the entry —
            # mirror any change there and in protocols/fused.py.
            counters = entry.counters
            count = counters[node]
            if count < cmax:
                counters[node] = count + 1
                if count == thr:
                    entry.bits |= 1 << node
            if not tdown:
                return
            rollover = entry.rollover + 1
            if rollover < rperiod:
                entry.rollover = rollover
                return
            entry.rollover = 0
            bits = 0
            for index, value in enumerate(counters):
                if value > 0:
                    value -= 1
                    counters[index] = value
                if value > thr:
                    bits |= 1 << index
            entry.bits = bits

        def predict(requester, key, address, code):
            # Owner for GETS, Group for GETX (Section 3.3).
            if code:
                entry = g_entries[requester].get(key)
                if entry is None:
                    return 0
                if bounded:
                    g_stamps[requester][key] = g_ticks[requester]
                    g_ticks[requester] += 1
                return entry.bits
            entry = o_entries[requester].get(key)
            if entry is None:
                return 0
            if bounded:
                o_stamps[requester][key] = o_ticks[requester]
                o_ticks[requester] += 1
            if entry.valid:
                return 1 << entry.owner
            return 0

        def train_response(requester, key, address, responder, code,
                           allocate):
            entry = o_entries[requester].get(key)
            if entry is not None:
                if bounded:
                    o_stamps[requester][key] = o_ticks[requester]
                    o_ticks[requester] += 1
            elif allocate:
                table = o_tables[requester]
                table._tick = o_ticks[requester]
                entry = table.lookup_allocate(key)
                o_ticks[requester] = table._tick
            if entry is not None:
                if responder == MEM:
                    entry.valid = False
                else:
                    entry.owner = responder
                    entry.valid = True
            entry = g_entries[requester].get(key)
            if entry is not None:
                if bounded:
                    g_stamps[requester][key] = g_ticks[requester]
                    g_ticks[requester] += 1
            elif allocate:
                table = g_tables[requester]
                table._tick = g_ticks[requester]
                entry = table.lookup_allocate(key)
                g_ticks[requester] = table._tick
            if entry is not None and responder != MEM:
                _train_group(entry, responder)

        def train_external(mask, key, address, requester, code, count):
            while mask:
                low = mask & -mask
                mask ^= low
                node = low.bit_length() - 1
                if code:  # Owner ignores requests for shared.
                    entry = o_entries[node].get(key)
                    if entry is not None:
                        if bounded:
                            o_stamps[node][key] = o_ticks[node]
                            o_ticks[node] += 1
                        entry.owner = requester
                        entry.valid = True
                entry = g_entries[node].get(key)
                if entry is not None:
                    if bounded:
                        g_stamps[node][key] = g_ticks[node]
                        g_ticks[node] += 1
                    for _ in range(count):
                        _train_group(entry, requester)

        def sync():
            for table, tick in zip(o_tables, o_ticks):
                table._tick = tick
            for table, tick in zip(g_tables, g_ticks):
                table._tick = tick

        return FusedKernel(
            predict, train_response, train_external, None, sync
        )

    # ------------------------------------------------------------------
    def entry_bits(self) -> int:
        return self._owner.entry_bits() + self._group.entry_bits()

    def stats(self) -> dict:
        self._materialise()
        return {
            "owner": self._owner.stats(),
            "group": self._group.stats(),
        }
