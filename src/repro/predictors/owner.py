"""The Owner predictor (paper Table 3, column 1).

Targets pairwise sharing and bandwidth-limited systems: it records the
last processor known to own the block (the last responder or last
external writer) and predicts exactly that one processor — at most one
extra control message per request, independent of system size.
"""

from __future__ import annotations

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, MEMORY_NODE, NodeId
from repro.predictors.base import DestinationSetPredictor, PredictorTable


class _OwnerEntry:
    """Owner id plus a valid bit (entry size ~ log2(N) + 1 bits)."""

    __slots__ = ("owner", "valid")

    def __init__(self) -> None:
        self.owner: NodeId = 0
        self.valid = False


class OwnerPredictor(DestinationSetPredictor):
    """Predict the last known owner of the block."""

    policy_name = "owner"

    def __init__(self, n_nodes: int, config: PredictorConfig):
        super().__init__(n_nodes, config)
        self._table: PredictorTable[_OwnerEntry] = PredictorTable(
            config, _OwnerEntry
        )
        self._empty = DestinationSet.empty(n_nodes)
        self._singletons = tuple(
            DestinationSet.of(n_nodes, node) for node in range(n_nodes)
        )

    # ------------------------------------------------------------------
    def predict_key(
        self, key: int, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        entry = self._table.lookup(key)
        if entry is not None and entry.valid:
            return self._singletons[entry.owner]
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
        if responder == MEMORY_NODE:
            # Memory responded: the minimal set suffices next time.
            entry.valid = False
        else:
            entry.owner = responder
            entry.valid = True

    def train_external_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        if access is not AccessType.GETX:
            return  # Table 3: requests for shared are ignored.
        entry = self._table.lookup(key)
        if entry is None:
            return
        entry.owner = requester
        entry.valid = True

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
        return max(1, (self.n_nodes - 1).bit_length()) + 1

    def stats(self) -> dict:
        self._materialise()
        return {
            "entries": self._table.occupancy(),
            "allocations": self._table.n_allocations,
            "evictions": self._table.n_evictions,
        }
