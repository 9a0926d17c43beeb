"""Sticky-Spatial(1) — the original multicast-snooping predictor.

Prior-work baseline from Bilir et al. [7], as described in the paper's
Section 3.5:

- **Sticky**: trains only up (set union); the destination set shrinks
  only when an entry is replaced.
- **Spatial(1)**: predictions aggregate the entry at the block's index
  with its two neighbouring entries, exploiting spatial locality the
  crude way (and forcing a direct-mapped organisation).
- Predictions ignore the tag, so aliasing blocks pollute each other.
- Trains on responses and retries from the memory controller — here
  modelled by :meth:`train_truth`, which receives the corrected
  destination set the directory computes when it handles the request.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, NodeId
from repro.predictors.base import DestinationSetPredictor


class StickySpatialPredictor(DestinationSetPredictor):
    """Direct-mapped, train-up-only, neighbour-aggregating predictor."""

    policy_name = "sticky-spatial"

    #: The original predictor indexes by 64 B cache block and derives
    #: spatial information from neighbouring entries; macroblock
    #: indexing is precisely the improvement the paper introduces over
    #: it, so this baseline ignores ``config.index_granularity``.
    BLOCK_GRANULARITY = 64

    def __init__(self, n_nodes: int, config: PredictorConfig):
        super().__init__(n_nodes, config)
        # Entries: index -> (tag, mask-bits).  Direct mapped: the
        # associativity in ``config`` is ignored (Section 3.5 notes the
        # scheme restricts implementations to direct mapping).
        self._entries: Dict[int, Tuple[int, int]] = {}
        self.n_allocations = 0
        self.n_replacements = 0

    # ------------------------------------------------------------------
    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        block_number = address // self.BLOCK_GRANULARITY
        bits = 0
        for neighbour in (block_number - 1, block_number, block_number + 1):
            entry = self._entries.get(self._index(neighbour))
            if entry is not None:
                # Predictions ignore the tag (Section 3.5).
                bits |= entry[1]
        return DestinationSet(self.n_nodes, bits)

    def train_truth(
        self, address: Address, pc: Address, truth: DestinationSet
    ) -> None:
        """Train up from the directory's corrected destination set."""
        block_number = address // self.BLOCK_GRANULARITY
        index = self._index(block_number)
        entry = self._entries.get(index)
        if entry is None:
            self._entries[index] = (block_number, truth.bits)
            self.n_allocations += 1
        elif entry[0] == block_number:
            self._entries[index] = (block_number, entry[1] | truth.bits)
        else:
            # Replacement: the only mechanism that shrinks a set.
            self._entries[index] = (block_number, truth.bits)
            self.n_replacements += 1

    # StickySpatial learns exclusively from directory feedback.
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

    # ------------------------------------------------------------------
    def entry_bits(self) -> int:
        return self.n_nodes

    def stats(self) -> dict:
        self._materialise()
        return {
            "entries": len(self._entries),
            "allocations": self.n_allocations,
            "replacements": self.n_replacements,
        }

    def _index(self, block_number: int) -> int:
        if self.config.unbounded:
            return block_number
        return block_number % self.config.n_entries
