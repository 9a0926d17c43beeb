"""A set-associative tag store with true-LRU replacement."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.common.types import Address


class SetAssociativeCache:
    """Tag-only set-associative cache model.

    Tracks block presence; data values are irrelevant to coherence
    studies.  ``probe`` checks without side effects, ``touch`` updates
    recency, ``insert`` fills a block and returns the victim (if any).
    """

    def __init__(self, size_bytes: int, associativity: int, block_size: int):
        self._block_size = block_size
        self._assoc = associativity
        self._n_sets = self.set_count(size_bytes, associativity, block_size)
        # Each set is an OrderedDict from block address to None; the
        # first entry is least recently used.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self._n_sets)
        ]

    @staticmethod
    def set_count(
        size_bytes: int, associativity: int, block_size: int
    ) -> int:
        """The set count of this geometry; ValueError when invalid."""
        for name, value in (
            ("size_bytes", size_bytes),
            ("block_size", block_size),
        ):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        n_blocks = size_bytes // block_size
        if n_blocks % associativity:
            raise ValueError(
                "size/block_size must be divisible by associativity"
            )
        return n_blocks // associativity

    # ------------------------------------------------------------------
    @property
    def n_sets(self) -> int:
        return self._n_sets

    @property
    def raw_sets(self) -> List[OrderedDict]:
        """The per-set ordered tag stores (LRU first in each set).

        Exposed for the trace-collection chunk loop, which inlines
        probe/touch/insert over these dicts; treat as an internal
        structure everywhere else.
        """
        return self._sets

    @property
    def associativity(self) -> int:
        return self._assoc

    @property
    def block_size(self) -> int:
        return self._block_size

    def capacity_blocks(self) -> int:
        """Total number of blocks the cache can hold."""
        return self._n_sets * self._assoc

    # ------------------------------------------------------------------
    def probe(self, address: Address) -> bool:
        """True if the block containing ``address`` is present."""
        block = self._align(address)
        return block in self._sets[self._set_index(block)]

    def touch(self, address: Address) -> bool:
        """Mark the block most-recently-used.  Returns presence."""
        block = self._align(address)
        cache_set = self._sets[self._set_index(block)]
        if block not in cache_set:
            return False
        cache_set.move_to_end(block)
        return True

    def insert(self, address: Address) -> Optional[Address]:
        """Fill the block; return the evicted block address, if any.

        If the block is already present this is equivalent to
        :meth:`touch` and returns ``None``.
        """
        block = self._align(address)
        cache_set = self._sets[self._set_index(block)]
        if block in cache_set:
            cache_set.move_to_end(block)
            return None
        victim = None
        if len(cache_set) >= self._assoc:
            victim, _ = cache_set.popitem(last=False)
        cache_set[block] = None
        return victim

    def invalidate(self, address: Address) -> bool:
        """Remove the block if present.  Returns True if it was."""
        block = self._align(address)
        cache_set = self._sets[self._set_index(block)]
        if block in cache_set:
            del cache_set[block]
            return True
        return False

    def occupied_blocks(self) -> int:
        """Number of blocks currently resident."""
        return sum(len(s) for s in self._sets)

    # ------------------------------------------------------------------
    def _align(self, address: Address) -> Address:
        return address & ~(self._block_size - 1)

    def _set_index(self, block: Address) -> int:
        return (block // self._block_size) % self._n_sets
