"""The Group predictor (paper Table 3, column 3).

Targets sharing among groups smaller than the whole machine: each
entry holds one 2-bit saturating counter per processor plus a 5-bit
rollover counter.  Training increments the counter of the responding
or requesting processor; when the rollover counter wraps, every
per-processor counter is decremented — the explicit "train down"
mechanism that removes processors that stopped touching the block.

Each entry also carries its predicted bitmask, maintained
incrementally as counters cross the threshold, so predictions are O(1)
instead of scanning all per-processor counters on every request.
"""

from __future__ import annotations

import functools
from typing import List

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, MEMORY_NODE, NodeId
from repro.predictors.base import DestinationSetPredictor, PredictorTable

_COUNTER_MAX = 3  # 2-bit saturating counters
_ROLLOVER_PERIOD = 32  # 5-bit rollover counter


class _GroupEntry:
    """N 2-bit counters plus a 5-bit rollover counter.

    ``bits`` caches the predicted set (nodes whose counter exceeds the
    threshold) and is kept in sync by the predictor's training code.
    """

    __slots__ = ("counters", "rollover", "bits")

    def __init__(self, n_nodes: int):
        self.counters: List[int] = [0] * n_nodes
        self.rollover = 0
        self.bits = 0

    def predicted_nodes(self) -> List[NodeId]:
        """Processors whose counters exceed the threshold."""
        return [node for node, count in enumerate(self.counters) if count > 1]


class GroupPredictor(DestinationSetPredictor):
    """Predict the recently active sharing group of the block.

    ``counter_bits`` generalises Table 3's 2-bit saturating counters
    (an ablation knob): a node is predicted once its counter exceeds
    half the saturation value, so 2 bits reproduces the paper's
    "Counters[n] > 1" rule exactly.
    """

    policy_name = "group"

    def __init__(
        self,
        n_nodes: int,
        config: PredictorConfig,
        rollover_period: int = _ROLLOVER_PERIOD,
        train_down: bool = True,
        counter_bits: int = 2,
    ):
        super().__init__(n_nodes, config)
        if counter_bits < 1:
            raise ValueError("counter_bits must be at least 1")
        if rollover_period < 1:
            raise ValueError("rollover_period must be at least 1")
        self._rollover_period = rollover_period
        self._train_down = train_down
        self._counter_max = (1 << counter_bits) - 1
        self._threshold = self._counter_max // 2
        self._counter_bits = counter_bits
        # A partial, not a bound method: the table must not refer back
        # to its predictor, or every predictor would be a reference
        # cycle that outlives its protocol until the cycle collector
        # runs.
        self._table: PredictorTable[_GroupEntry] = PredictorTable(
            config, functools.partial(_GroupEntry, n_nodes)
        )
        self._empty = DestinationSet.empty(n_nodes)

    # ------------------------------------------------------------------
    def predict_key(
        self, key: int, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        entry = self._table.lookup(key)
        if entry is None:
            return self._empty
        return DestinationSet._from_bits(self.n_nodes, entry.bits)

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
        if responder != MEMORY_NODE:
            self._train(entry, responder)

    def train_external_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        # "On each request or response, the predictor increments the
        # corresponding counter" (Section 3.3) — external reads train
        # too, which is what lets Group learn a producer's readers and
        # predict the sharers its next upgrade must invalidate.
        entry = self._table.lookup(key)
        if entry is not None:
            self._train(entry, requester)

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
        return self._counter_bits * self.n_nodes + 5

    def stats(self) -> dict:
        self._materialise()
        return {
            "entries": self._table.occupancy(),
            "allocations": self._table.n_allocations,
            "evictions": self._table.n_evictions,
        }

    def _train(self, entry: _GroupEntry, node: NodeId) -> None:
        # COUPLING: this rule has exactly two implementations — this
        # method (the record path and the scalar ``_handle_fast`` loop
        # both call it) and the compiled replay kernel
        # (kernels/_native.c, shared by Group and Owner/Group); mirror
        # any semantic change there.  The columnar equivalence suite
        # compares full table state and catches divergence.
        counters = entry.counters
        count = counters[node]
        if count < self._counter_max:
            counters[node] = count + 1
            if count == self._threshold:
                entry.bits |= 1 << node
        if not self._train_down:
            return  # Stickiness ablation: never decay.
        entry.rollover += 1
        if entry.rollover >= self._rollover_period:
            entry.rollover = 0
            bits = 0
            threshold = self._threshold
            for index, value in enumerate(counters):
                if value > 0:
                    value -= 1
                    counters[index] = value
                if value > threshold:
                    bits |= 1 << index
            entry.bits = bits
