"""The trace-collection pipeline: references in, L2 miss trace out.

Reproduces the paper's methodology (Section 2.1): run the workload's
memory references through per-processor cache hierarchies under a MOSI
protocol and record every L2 miss as a coherence-request trace record.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional

from repro import kernels
from repro.common.params import SystemConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reference import MemoryReference
from repro.coherence.state import GlobalCoherenceState
from repro.trace import columns as _columns
from repro.trace.trace import Trace


@dataclasses.dataclass
class CollectionResult:
    """Output of a trace-collection run."""

    trace: Trace
    instructions: Dict[int, int]
    references: int

    @property
    def total_instructions(self) -> int:
        """Instructions executed across all processors."""
        return sum(self.instructions.values())

    @property
    def misses_per_kilo_instruction(self) -> float:
        """L2 misses per 1,000 instructions (Table 2, column 6)."""
        total = self.total_instructions
        return 1000.0 * len(self.trace) / total if total else 0.0


class TraceCollector:
    """Filters memory references through caches into an L2 miss trace.

    A reference *hits* only when the block is resident in the issuing
    processor's hierarchy **and** the global MOSI state grants the
    required permission (any valid copy for loads; ownership for
    stores).  Everything else becomes a GETS/GETX coherence request.
    Stores to blocks held shared therefore produce GETX upgrades, and
    external GETX requests invalidate remote copies — the behaviours
    that create the cache-to-cache misses this paper studies.
    """

    def __init__(self, config: SystemConfig, name: str = ""):
        self._config = config
        self._name = name
        self._trace = Trace(n_processors=config.n_processors, name=name)
        self._instructions: Dict[int, int] = {
            node: 0 for node in range(config.n_processors)
        }
        self._instructions_at_last_miss: Dict[int, int] = {
            node: 0 for node in range(config.n_processors)
        }
        self._references = 0
        self._hierarchies: Optional[List[CacheHierarchy]] = None
        self._global: Optional[GlobalCoherenceState] = None
        # The native session (repro.kernels) that holds the cache/MOSI
        # state and instruction counters while it is set; None when
        # the Python structures hold them, False when the geometry is
        # outside the native envelope.  Readers call _materialise().
        self._session = kernels.collector_session(self)
        if not self._session:
            self._build_state()

    def _build_state(self) -> None:
        config = self._config
        self._hierarchies = [
            CacheHierarchy(config) for _ in range(config.n_processors)
        ]
        self._global = GlobalCoherenceState(
            config.n_processors, config.block_size
        )

    def _materialise(self) -> None:
        # Build and sync the Python state before any Python-side API
        # observes (or mutates) the cache/MOSI/counter structures.
        session = self._session
        if session:
            session.materialise(self)

    # ------------------------------------------------------------------
    @property
    def global_state(self) -> GlobalCoherenceState:
        """The live global MOSI state (useful for inspection/tests)."""
        self._materialise()
        return self._global

    def hierarchy(self, node: int) -> CacheHierarchy:
        """The cache hierarchy of processor ``node``."""
        self._materialise()
        return self._hierarchies[node]

    # ------------------------------------------------------------------
    def process(self, reference: MemoryReference) -> bool:
        """Process one reference.  Returns True if it missed."""
        self._materialise()
        node = reference.node
        if not 0 <= node < self._config.n_processors:
            raise ValueError(
                f"node {node} outside [0, {self._config.n_processors})"
            )
        self._instructions[node] += reference.instructions
        self._references += 1

        hierarchy = self._hierarchies[node]
        owner, sharers = self._global.lookup_fast(reference.address)
        if reference.is_write:
            # Stores need *exclusive* ownership (M state): a write by
            # the owner while sharers hold S copies is an upgrade that
            # must issue a GETX and invalidate them.
            permitted = owner == node and not sharers
        else:
            permitted = owner == node or sharers >> node & 1

        if permitted and hierarchy.access(reference.address):
            return False

        self._record_miss(reference)
        return True

    def run(self, references: Iterable[MemoryReference]) -> CollectionResult:
        """Process a full reference stream and return the result."""
        for reference in references:
            self.process(reference)
        return self.result()

    def run_chunks(self, chunks) -> CollectionResult:
        """Process a stream of :class:`ReferenceChunk` columns.

        The chunk-consuming fast path: behaviourally identical to
        feeding the same references through :meth:`process` one at a
        time (the generation-equivalence suite asserts byte-identical
        traces), but with the cache/MOSI filtering inlined over flat
        set arrays, tag/set-index columns precomputed per chunk
        (vectorized under numpy), and misses appended to the trace in
        bulk.
        """
        for chunk in chunks:
            self.process_chunk(chunk)
        return self.result()

    def process_chunk(self, chunk) -> int:
        """Process one column chunk.  Returns the number of misses."""
        config = self._config
        n_procs = config.n_processors
        nodes = chunk.nodes
        length = len(nodes)
        if length == 0:
            return 0
        n_miss = kernels.try_collect(self, chunk)
        if n_miss is not None:
            return n_miss
        self._materialise()
        if min(nodes) < 0 or max(nodes) >= n_procs:
            raise ValueError(
                f"chunk contains nodes outside [0, {n_procs})"
            )
        pcs = chunk.pcs
        writes = chunk.writes
        gaps = chunk.instructions

        block_size = config.block_size
        shift = block_size.bit_length() - 1
        mask = ~(block_size - 1)
        hierarchies = self._hierarchies
        l1_sets = [h.l1.raw_sets for h in hierarchies]
        l2_sets = [h.l2.raw_sets for h in hierarchies]
        n1 = hierarchies[0].l1.n_sets
        n2 = hierarchies[0].l2.n_sets
        l1_assoc = hierarchies[0].l1.associativity
        l2_assoc = hierarchies[0].l2.associativity

        np_ = _columns.numpy_module()
        addresses_np = getattr(chunk, "addresses_np", None)
        if np_ is not None and addresses_np is not None:
            blocks_np = addresses_np & np_.int64(mask)
            sets_np = blocks_np >> np_.int64(shift)
            blocks = blocks_np.tolist()
            l1_index = (sets_np % n1).tolist()
            l2_index = (sets_np % n2).tolist()
        else:
            blocks = [a & mask for a in chunk.addresses]
            l1_index = [(b >> shift) % n1 for b in blocks]
            l2_index = [(b >> shift) % n2 for b in blocks]

        executed = [self._instructions[node] for node in range(n_procs)]
        at_last_miss = [
            self._instructions_at_last_miss[node]
            for node in range(n_procs)
        ]
        state_blocks = self._global._blocks
        state_get = state_blocks.get

        out_blocks: List[int] = []
        out_pcs: List[int] = []
        out_nodes: List[int] = []
        out_codes: List[int] = []
        out_gaps: List[int] = []

        for i in range(length):
            node = nodes[i]
            executed[node] += gaps[i]
            block = blocks[i]
            is_write = writes[i]
            entry = state_get(block)
            owner, sharers = entry if entry is not None else (-1, 0)
            if is_write:
                permitted = owner == node and not sharers
            else:
                permitted = owner == node or sharers >> node & 1

            if permitted:
                l1_set = l1_sets[node][l1_index[i]]
                if block in l1_set:
                    l1_set.move_to_end(block)
                    l2_set = l2_sets[node][l2_index[i]]
                    if block in l2_set:
                        l2_set.move_to_end(block)
                    continue
                l2_set = l2_sets[node][l2_index[i]]
                if block in l2_set:
                    l2_set.move_to_end(block)
                    if len(l1_set) >= l1_assoc:
                        l1_set.popitem(last=False)
                    l1_set[block] = None
                    continue

            # -- miss: record, apply MOSI, invalidate, fill ----------
            done = executed[node]
            out_gaps.append(done - at_last_miss[node])
            at_last_miss[node] = done
            if owner >= 0 and owner != node:
                required = 1 << owner
            else:
                required = 0
            if is_write:
                required |= sharers & ~(1 << node)
                state_blocks[block] = (node, 0)
            elif owner != node:
                state_blocks[block] = (owner, sharers | 1 << node)
            out_blocks.append(block)
            out_pcs.append(pcs[i])
            out_nodes.append(node)
            out_codes.append(1 if is_write else 0)

            if is_write and required:
                l1_i = l1_index[i]
                l2_i = l2_index[i]
                remaining = required
                while remaining:
                    low = remaining & -remaining
                    victim_node = low.bit_length() - 1
                    victim_set = l1_sets[victim_node][l1_i]
                    if block in victim_set:
                        del victim_set[block]
                    victim_set = l2_sets[victim_node][l2_i]
                    if block in victim_set:
                        del victim_set[block]
                    remaining ^= low

            l2_set = l2_sets[node][l2_index[i]]
            if block in l2_set:
                l2_set.move_to_end(block)
            else:
                if len(l2_set) >= l2_assoc:
                    victim, _ = l2_set.popitem(last=False)
                    victim_l1 = l1_sets[node][(victim >> shift) % n1]
                    if victim in victim_l1:
                        del victim_l1[victim]
                    entry = state_get(victim)
                    if entry is not None:
                        victim_owner, victim_sharers = entry
                        if victim_owner == node:
                            state_blocks[victim] = (-1, victim_sharers)
                        elif victim_sharers >> node & 1:
                            state_blocks[victim] = (
                                victim_owner,
                                victim_sharers & ~(1 << node),
                            )
                l2_set[block] = None
            l1_set = l1_sets[node][l1_index[i]]
            if block in l1_set:
                l1_set.move_to_end(block)
            else:
                if len(l1_set) >= l1_assoc:
                    l1_set.popitem(last=False)
                l1_set[block] = None

        for node in range(n_procs):
            self._instructions[node] = executed[node]
            self._instructions_at_last_miss[node] = at_last_miss[node]
        self._references += length
        self._trace.extend_fields(
            out_blocks, out_pcs, out_nodes, out_codes, out_gaps
        )
        return len(out_blocks)

    def result(self) -> CollectionResult:
        """The trace and counters accumulated so far.

        Reads the instruction counters from a native session without
        materialising the cache/MOSI state.
        """
        session = self._session
        return CollectionResult(
            trace=self._trace,
            instructions=(
                session.instructions() if session
                else dict(self._instructions)
            ),
            references=self._references,
        )

    # ------------------------------------------------------------------
    def _record_miss(self, reference: MemoryReference) -> None:
        is_write = reference.is_write
        block = reference.address & ~(self._config.block_size - 1)
        node = reference.node
        executed = self._instructions[node]
        gap = executed - self._instructions_at_last_miss[node]
        self._instructions_at_last_miss[node] = executed
        # Generator-side fast path: fields are produced by validated
        # machinery, so the trace columns are appended directly instead
        # of round-tripping through a checked TraceRecord.
        required = self._global.apply_fast(block, node, is_write)[3]
        self._trace.append_fields(
            block, reference.pc, node, 1 if is_write else 0, gap
        )

        if is_write and required:
            # Invalidate remote copies (owner and sharers lose them).
            hierarchies = self._hierarchies
            while required:
                low = required & -required
                hierarchies[low.bit_length() - 1].invalidate(block)
                required ^= low

        for victim in self._hierarchies[node].fill(block):
            self._global.evict(node, victim)
