"""Bandwidth-adaptive hybrid predictor (extension, not in the paper).

The paper's related work cites bandwidth-adaptive snooping (Martin et
al., HPCA 2002): broadcast when bandwidth is plentiful, conserve when
it is not.  This predictor composes the paper's own two extreme
policies the same way: it behaves like Broadcast-If-Shared while its
recent request-message budget is undershot and falls back to Owner
when it is overshot, producing a predictor whose position on the
latency/bandwidth curve is *tunable* via a single budget knob.

The controller tracks an exponentially weighted moving average of the
destination-set sizes it has produced; each prediction picks the
aggressive or conservative sub-policy by comparing the average to
``budget_messages_per_miss``.
"""

from __future__ import annotations

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, NodeId
from repro.predictors.base import DestinationSetPredictor, indexing_key
from repro.predictors.broadcast_if_shared import BroadcastIfSharedPredictor
from repro.predictors.owner import OwnerPredictor


class BandwidthAdaptivePredictor(DestinationSetPredictor):
    """Broadcast-If-Shared under budget, Owner over budget."""

    policy_name = "bandwidth-adaptive"

    #: EWMA smoothing factor for the recent set-size estimate.
    SMOOTHING = 0.02

    def __init__(
        self,
        n_nodes: int,
        config: PredictorConfig,
        budget_messages_per_miss: float = 6.0,
    ):
        super().__init__(n_nodes, config)
        if budget_messages_per_miss <= 0:
            raise ValueError("budget_messages_per_miss must be positive")
        self.budget = budget_messages_per_miss
        self._aggressive = BroadcastIfSharedPredictor(n_nodes, config)
        self._conservative = OwnerPredictor(n_nodes, config)
        self._recent_set_size = 0.0
        self.n_aggressive = 0
        self.n_conservative = 0

    # ------------------------------------------------------------------
    def predict_key(
        self, key: int, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        if self._recent_set_size <= self.budget:
            prediction = self._aggressive.predict_key(
                key, address, pc, access
            )
            self.n_aggressive += 1
        else:
            prediction = self._conservative.predict_key(
                key, address, pc, access
            )
            self.n_conservative += 1
        self._recent_set_size += self.SMOOTHING * (
            prediction.count() - self._recent_set_size
        )
        return prediction

    def train_response_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        self._aggressive.train_response_key(
            key, address, pc, responder, access, allocate
        )
        self._conservative.train_response_key(
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
        self._aggressive.train_external_key(
            key, address, pc, requester, access
        )
        self._conservative.train_external_key(
            key, address, pc, requester, access
        )

    # ------------------------------------------------------------------
    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        return self.predict_key(
            indexing_key(address, pc, self.config), address, pc, access
        )

    def train_response(
        self,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        self._aggressive.train_response(
            address, pc, responder, access, allocate
        )
        self._conservative.train_response(
            address, pc, responder, access, allocate
        )

    def train_external(
        self,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        self._aggressive.train_external(address, pc, requester, access)
        self._conservative.train_external(address, pc, requester, access)

    # ------------------------------------------------------------------
    def entry_bits(self) -> int:
        return (
            self._aggressive.entry_bits()
            + self._conservative.entry_bits()
        )

    def stats(self) -> dict:
        return {
            "aggressive_predictions": self.n_aggressive,
            "conservative_predictions": self.n_conservative,
            "recent_set_size": self._recent_set_size,
        }
