"""Global per-block MOSI ownership/sharing state.

In a MOSI write-invalidate protocol (paper Section 3) each block has at
most one **owner** — a processor holding the block in M (Modified) or O
(Owned) state, or the memory/home module when no processor does — and a
set of **sharers** holding read-only S copies.

:class:`GlobalCoherenceState` is the omniscient view a directory would
have if it were perfect, and is what the multicast-snooping home node
consults to decide whether a destination set was sufficient.

Storage is allocation-light: each tracked block maps to an
``(owner, sharers_bitmask)`` tuple, and the hot-path entry point
:meth:`GlobalCoherenceState.apply_fast` works entirely in scalars.
The record-oriented :meth:`apply`/:meth:`lookup` API is preserved on
top of it for analyses, tests, and hand-written consumers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.common.destset import DestinationSet
from repro.common.types import (
    AccessType,
    Address,
    MEMORY_NODE,
    NodeId,
)
from repro.trace.record import TraceRecord


def _bits_to_frozenset(bits: int) -> frozenset:
    nodes = []
    while bits:
        low = bits & -bits
        nodes.append(low.bit_length() - 1)
        bits ^= low
    return frozenset(nodes)


@dataclasses.dataclass
class BlockState:
    """Ownership state of one cache block.

    ``owner`` is ``MEMORY_NODE`` when memory owns the block (no M/O
    copy outstanding); ``sharers`` holds processors with S copies.  In
    MOSI an owning processor may simultaneously appear in ``sharers``
    conceptually; we keep the owner out of the sharer set and treat
    "holds a readable copy" as ``owner == p or p in sharers``.
    """

    owner: NodeId = MEMORY_NODE
    sharers: frozenset = frozenset()

    def holders(self) -> frozenset:
        """All processors with a valid copy (owner + sharers)."""
        if self.owner == MEMORY_NODE:
            return self.sharers
        return self.sharers | {self.owner}

    def is_cached(self, node: NodeId) -> bool:
        """True if ``node`` holds a readable copy."""
        return node == self.owner or node in self.sharers


@dataclasses.dataclass(frozen=True)
class CoherenceOutcome:
    """What happened when a request was applied to the global state.

    Attributes:
        record: the request.
        owner_before: owner at the time the request was ordered.
        sharers_before: sharers at that time (excluding the owner).
        responder: node that supplies the data (``MEMORY_NODE`` if the
            home memory responds).
        required: processors *other than the requester* that had to
            observe the request (the owner if it is a processor, plus
            all sharers for GETX).
        directory_indirection: True if a directory protocol would have
            had to forward this request to at least one processor —
            i.e. the miss is a cache-to-cache (or invalidation) miss.
    """

    record: TraceRecord
    owner_before: NodeId
    sharers_before: frozenset
    responder: NodeId
    required: DestinationSet
    directory_indirection: bool

    @property
    def is_cache_to_cache(self) -> bool:
        """True if the data came from another processor's cache."""
        return self.responder != MEMORY_NODE


class GlobalCoherenceState:
    """Tracks owner/sharers for every block and applies requests.

    This class is deliberately *protocol free*: it models the logical
    MOSI state transitions that any of the three protocols (snooping,
    directory, multicast snooping) would ultimately produce, because
    all three enforce the same write-invalidate semantics over the same
    totally-ordered request stream.
    """

    __slots__ = ("_n", "_block_size", "_blocks")

    def __init__(self, n_processors: int, block_size: int = 64):
        if n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        self._n = n_processors
        self._block_size = block_size
        #: block address -> (owner, sharers bitmask); owner is
        #: MEMORY_NODE (-1) when memory owns the block.
        self._blocks: Dict[Address, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        return self._n

    @property
    def block_size(self) -> int:
        return self._block_size

    def lookup(self, address: Address) -> BlockState:
        """Current state of the block containing ``address``."""
        entry = self._blocks.get(self._align(address))
        if entry is None:
            return BlockState()
        return BlockState(entry[0], _bits_to_frozenset(entry[1]))

    def lookup_fast(self, address: Address) -> Tuple[int, int]:
        """``(owner, sharers_bitmask)`` of the block (hot path)."""
        entry = self._blocks.get(self._align(address))
        return entry if entry is not None else (MEMORY_NODE, 0)

    def n_tracked_blocks(self) -> int:
        """Number of blocks with non-default state."""
        return len(self._blocks)

    def check_invariants(self) -> None:
        """Check the MOSI invariants on every tracked block.

        Each block has a single owner, memory (``MEMORY_NODE``) or one
        processor below ``n``; an owning processor is not also listed
        among the sharers; and the sharer mask names only processors
        below ``n``.  Raises :class:`AssertionError` naming the first
        offending block (unconditionally, not via ``assert``).
        """
        n = self._n
        for block, entry in self._blocks.items():
            if type(entry) is not tuple or len(entry) != 2:
                raise AssertionError(
                    f"block {block:#x}: malformed state {entry!r}"
                )
            owner, sharers = entry
            if not MEMORY_NODE <= owner < n:
                raise AssertionError(
                    f"block {block:#x}: owner {owner} is not memory or "
                    f"one of {n} processors"
                )
            if sharers < 0 or sharers >> n:
                raise AssertionError(
                    f"block {block:#x}: sharer mask {sharers:#x} exceeds "
                    f"{n} bits"
                )
            if owner >= 0 and sharers >> owner & 1:
                raise AssertionError(
                    f"block {block:#x}: owner {owner} is also a sharer"
                )

    # ------------------------------------------------------------------
    def apply_fast(
        self, block: Address, requester: NodeId, is_getx: int
    ) -> Tuple[int, int, int, int]:
        """Order one request on ``block`` and update state, in scalars.

        ``block`` must already be block-aligned and ``requester``
        already validated.  Returns ``(owner_before,
        sharers_before_bits, responder, required_bits)`` — the owner is
        ``MEMORY_NODE`` (-1) when memory owned the block, and the
        responder likewise when memory supplies the data.
        """
        blocks = self._blocks
        entry = blocks.get(block)
        if entry is None:
            owner, sharers = MEMORY_NODE, 0
        else:
            owner, sharers = entry

        if owner >= 0 and owner != requester:
            required = 1 << owner
            responder = owner
        else:
            required = 0
            responder = MEMORY_NODE
        if is_getx:
            required |= sharers & ~(1 << requester)
            blocks[block] = (requester, 0)
        elif owner != requester:
            # MOSI: a processor owner keeps ownership (M -> O) and the
            # requester joins the sharers; a memory owner stays owner.
            blocks[block] = (owner, sharers | 1 << requester)
        # (GETS by the current owner — e.g. a refetch after an upgrade
        # race — leaves the state unchanged.)
        return owner, sharers, responder, required

    def apply(self, record: TraceRecord) -> CoherenceOutcome:
        """Order ``record``, update state, and report the outcome."""
        if not 0 <= record.requester < self._n:
            raise ValueError(
                f"requester {record.requester} outside [0, {self._n})"
            )
        owner, sharers, responder, required = self.apply_fast(
            self._align(record.address),
            record.requester,
            record.access is AccessType.GETX,
        )
        return CoherenceOutcome(
            record=record,
            owner_before=owner,
            sharers_before=_bits_to_frozenset(sharers),
            responder=responder,
            required=DestinationSet._from_bits(self._n, required),
            directory_indirection=required != 0,
        )

    def evict(self, node: NodeId, address: Address) -> None:
        """Model an L2 eviction of ``address`` by ``node``.

        Owner evictions write the block back to memory (owner becomes
        the memory module); sharer evictions silently drop the copy.
        """
        block = self._align(address)
        entry = self._blocks.get(block)
        if entry is None:
            return
        owner, sharers = entry
        if owner == node:
            self._blocks[block] = (MEMORY_NODE, sharers)
        elif sharers >> node & 1:
            self._blocks[block] = (owner, sharers & ~(1 << node))

    # ------------------------------------------------------------------
    def _align(self, address: Address) -> Address:
        return address & ~(self._block_size - 1)
