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

from typing import Dict, Optional, Sequence, Tuple

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, NodeId
from repro.predictors.base import DestinationSetPredictor, FusedKernel


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

    def train_external_batch(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
        count: int,
    ) -> None:
        return None  # StickySpatial learns only from the directory.

    # ------------------------------------------------------------------
    @classmethod
    def fused_kernel(
        cls, predictors: "Sequence[StickySpatialPredictor]"
    ) -> Optional[FusedKernel]:
        granularity = cls.BLOCK_GRANULARITY
        entries_l = [p._entries for p in predictors]
        config = predictors[0].config
        if any(p.config != config for p in predictors):
            return None
        unbounded = config.unbounded
        n_entries = None if unbounded else config.n_entries

        def predict(requester, key, address, code):
            block_number = address // granularity
            entries = entries_l[requester]
            bits = 0
            for neighbour in (
                block_number - 1, block_number, block_number + 1
            ):
                entry = entries.get(
                    neighbour if unbounded else neighbour % n_entries
                )
                if entry is not None:
                    bits |= entry[1]
            return bits

        def train_response(requester, key, address, responder, code,
                           allocate):
            return None  # Learns exclusively from directory feedback.

        def train_truth(requester, address, truth_bits):
            block_number = address // granularity
            index = (
                block_number if unbounded else block_number % n_entries
            )
            entries = entries_l[requester]
            entry = entries.get(index)
            if entry is None:
                entries[index] = (block_number, truth_bits)
                predictors[requester].n_allocations += 1
            elif entry[0] == block_number:
                entries[index] = (block_number, entry[1] | truth_bits)
            else:
                entries[index] = (block_number, truth_bits)
                predictors[requester].n_replacements += 1

        def sync():
            return None

        return FusedKernel(
            predict, train_response, None, train_truth, sync
        )

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
