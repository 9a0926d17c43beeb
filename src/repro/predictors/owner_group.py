"""The Owner/Group hybrid predictor (paper Section 3.3).

Uses a Group predictor for requests for exclusive and an Owner
predictor for requests for shared.  Because all processors in a stable
sharing set observe all GETX requests, each can track the current
owner, so GETS requests can go to just the predicted owner — cutting
bandwidth below Group while keeping its accuracy on writes.
"""

from __future__ import annotations

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, NodeId
from repro.predictors.base import DestinationSetPredictor
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
    def entry_bits(self) -> int:
        return self._owner.entry_bits() + self._group.entry_bits()

    def stats(self) -> dict:
        self._materialise()
        return {
            "owner": self._owner.stats(),
            "group": self._group.stats(),
        }
