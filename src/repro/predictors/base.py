"""Predictor framework: interface and the tagged set-associative table.

Predictors are tagged, set-associative, and (by default) indexed by
data block address (paper Section 3.1); alternative indexings use
macroblock addresses (dropping low-order bits) or the miss PC
(Section 3.4).  On a predictor miss the predictor returns the empty
set, which the protocol unions with the minimal destination set —
reproducing the paper's "on a predictor miss, return the minimal
destination set" default.

Allocation policy (Section 3.1): "the predictor allocates an entry only
if the minimal destination set proves insufficient to directly locate
the requested block" — the ``allocate`` flag on
:meth:`DestinationSetPredictor.train_response` carries that signal.

Hot-path layout: the table stores all entries in a single flat dict
keyed by the full index key (which encodes ``(set, tag)``: the set is
``key % n_sets``), with LRU state carried intrusively as per-entry
access stamps instead of per-set ``OrderedDict`` ordering.  Eviction
picks the minimum stamp within the victim's set, which reproduces
exactly the per-set LRU order of the previous representation.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Generic, List, Optional, TypeVar

from repro.common.destset import DestinationSet
from repro.common.params import PredictorConfig
from repro.common.types import AccessType, Address, NodeId

EntryT = TypeVar("EntryT")


def indexing_key(
    address: Address, pc: Address, config: PredictorConfig
) -> int:
    """The predictor index key for a miss at ``address`` / ``pc``."""
    if config.use_pc_index:
        return pc
    return address // config.index_granularity


class PredictorTable(Generic[EntryT]):
    """A tagged, set-associative (or unbounded) predictor table.

    Bounded tables use LRU replacement within each set; unbounded
    tables (``config.n_entries is None``) never evict, modelling the
    paper's "unbounded size" sensitivity points.
    """

    __slots__ = (
        "_config",
        "_entry_factory",
        "_entries",
        "_stamps",
        "_set_keys",
        "_tick",
        "_bounded",
        "_n_sets",
        "_assoc",
        "n_allocations",
        "n_evictions",
    )

    def __init__(
        self, config: PredictorConfig, entry_factory: Callable[[], EntryT]
    ):
        self._config = config
        self._entry_factory = entry_factory
        #: key -> entry, for bounded and unbounded tables alike.
        self._entries: Dict[int, EntryT] = {}
        self._bounded = not config.unbounded
        if self._bounded:
            self._n_sets = config.n_sets
            self._assoc = config.associativity
            #: key -> last-access stamp (the intrusive LRU state).
            self._stamps: Dict[int, int] = {}
            #: set index -> resident keys (only touched sets allocate).
            self._set_keys: Dict[int, List[int]] = {}
        else:
            self._n_sets = 0
            self._assoc = 0
            self._stamps = {}
            self._set_keys = {}
        self._tick = 0
        self.n_allocations = 0
        self.n_evictions = 0

    # ------------------------------------------------------------------
    @property
    def config(self) -> PredictorConfig:
        return self._config

    def key_for(self, address: Address, pc: Address) -> int:
        """Index key for an access (see :func:`indexing_key`)."""
        return indexing_key(address, pc, self._config)

    def lookup(self, key: int) -> Optional[EntryT]:
        """Return the entry for ``key`` or None; refreshes LRU."""
        entry = self._entries.get(key)
        if entry is not None and self._bounded:
            self._stamps[key] = self._tick
            self._tick += 1
        return entry

    def lookup_allocate(self, key: int) -> EntryT:
        """Return the entry for ``key``, allocating (evicting) if absent."""
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            if self._bounded:
                self._stamps[key] = self._tick
                self._tick += 1
            return entry
        if self._bounded:
            set_index = key % self._n_sets
            bucket = self._set_keys.get(set_index)
            if bucket is None:
                bucket = self._set_keys[set_index] = []
            elif len(bucket) >= self._assoc:
                stamps = self._stamps
                victim = min(bucket, key=stamps.__getitem__)
                bucket.remove(victim)
                del entries[victim]
                del stamps[victim]
                self.n_evictions += 1
            bucket.append(key)
            self._stamps[key] = self._tick
            self._tick += 1
        entry = self._entry_factory()
        entries[key] = entry
        self.n_allocations += 1
        return entry

    def occupancy(self) -> int:
        """Number of live entries."""
        return len(self._entries)


class DestinationSetPredictor(abc.ABC):
    """Interface of a per-node destination-set predictor.

    The returned prediction contains only the *extra* processors the
    predictor nominates; the protocol always unions in the minimal
    destination set (requester + home), as in the paper.

    Protocol hot loops call the ``*_key`` variants with the table index
    key precomputed once per request (every per-node predictor of one
    protocol shares the same :class:`PredictorConfig`, hence the same
    key).  The default implementations delegate to the classic
    entry points, so predictors with non-standard indexing (e.g.
    StickySpatial) or no table at all need not override them.  Table
    predictors implement the ``*_key`` variants as the primary code
    path and the classic methods as thin key-computing wrappers;
    subclasses overriding behaviour should override the ``*_key``
    variants.
    """

    #: Short name used in reports and the registry.
    policy_name: str = ""

    #: The protocol's native replay session while it holds this
    #: predictor's table state (see "Resident replay state" in
    #: :mod:`repro.kernels`); readers outside the protocol's hot paths
    #: call :meth:`_materialise` first.
    _session = None

    def __init__(self, n_nodes: int, config: PredictorConfig):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = n_nodes
        self.config = config

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def predict(
        self, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        """Predict extra destinations for a miss at ``address``."""

    @abc.abstractmethod
    def train_response(
        self,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        """Train on the data response for this node's own miss.

        ``responder`` is the supplying node, or ``MEMORY_NODE`` when
        memory responded.  ``allocate`` is True when the minimal
        destination set proved insufficient (the paper's allocation
        filter); when False only existing entries are updated.
        """

    @abc.abstractmethod
    def train_external(
        self,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        """Train on an external coherence request delivered to this node."""

    # ------------------------------------------------------------------
    # Hot-path variants with the index key precomputed by the caller.
    # ------------------------------------------------------------------
    def predict_key(
        self, key: int, address: Address, pc: Address, access: AccessType
    ) -> DestinationSet:
        """:meth:`predict` with the table key already computed."""
        return self.predict(address, pc, access)

    def train_response_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        responder: NodeId,
        access: AccessType,
        allocate: bool,
    ) -> None:
        """:meth:`train_response` with the table key already computed."""
        self.train_response(address, pc, responder, access, allocate)

    def train_external_key(
        self,
        key: int,
        address: Address,
        pc: Address,
        requester: NodeId,
        access: AccessType,
    ) -> None:
        """:meth:`train_external` with the table key already computed."""
        self.train_external(address, pc, requester, access)

    # ------------------------------------------------------------------
    def train_truth(
        self, address: Address, pc: Address, truth: DestinationSet
    ) -> None:
        """Train with the corrected destination set from the directory.

        Only predictors that learn from directory retries/corrections
        (StickySpatial) implement this; the default is a no-op.
        """

    def entry_bits(self) -> int:
        """Approximate entry size in bits, excluding the tag (Table 3)."""
        return 0

    def stats(self) -> dict:
        """Implementation counters for reports/tests."""
        return {}

    def _materialise(self) -> None:
        """Bring this predictor's Python state up to date with a native
        replay session that holds it, if any."""
        if self._session is not None:
            self._session.materialise()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_nodes={self.n_nodes})"
