"""Degenerate predictors: the design-space endpoints and the oracle.

- :class:`MinimalPredictor` — always predicts the empty extra set, so
  requests go to the minimal destination set only.  In the multicast
  framework this behaves like a directory protocol's first hop.
- :class:`BroadcastPredictor` — always predicts all processors,
  recreating broadcast snooping.
- :class:`OraclePredictor` — predicts exactly the processors that must
  observe the request, by consulting the live global coherence state.
  Not in the paper; bounds what any predictor could achieve (an
  extension documented in DESIGN.md §6).
"""

from __future__ import annotations

from typing import Optional

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, NodeId
from repro.coherence.state import GlobalCoherenceState
from repro.predictors.base import DestinationSetPredictor


class _StaticPredictor(DestinationSetPredictor):
    """Shared no-training plumbing for the static policies."""

    def train_response(
        self,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        return None

    def train_external(
        self,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        return None


class MinimalPredictor(_StaticPredictor):
    """Always the minimal destination set (directory-like)."""

    policy_name = "minimal"

    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        return DestinationSet.empty(self.n_nodes)


class BroadcastPredictor(_StaticPredictor):
    """Always every processor (broadcast snooping)."""

    policy_name = "broadcast"

    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        return DestinationSet.broadcast(self.n_nodes)


class OraclePredictor(_StaticPredictor):
    """Perfect destination-set prediction (an upper bound).

    The evaluator must attach itself as the oracle's information source
    via :meth:`bind`, and tell it which node it serves via ``node``.
    """

    policy_name = "oracle"

    def __init__(
        self,
        n_nodes: int,
        config: PredictorConfig,
        node: int = 0,
        state: Optional[GlobalCoherenceState] = None,
    ):
        super().__init__(n_nodes, config)
        self.node = node
        self._state = state

    def bind(self, state: GlobalCoherenceState, node: int) -> None:
        """Attach the live global state this oracle peeks at."""
        self._state = state
        self.node = node

    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        if self._state is None:
            raise RuntimeError(
                "OraclePredictor.predict before bind(); the evaluator "
                "must attach the global coherence state"
            )
        owner, sharers = self._state.lookup_fast(address)
        bits = 0
        if owner >= 0 and owner != self.node:
            bits = 1 << owner
        if access is AccessType.GETX:
            bits |= sharers & ~(1 << self.node)
        return DestinationSet._from_bits(self.n_nodes, bits)
