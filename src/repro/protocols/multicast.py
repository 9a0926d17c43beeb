"""Multicast snooping with destination-set prediction (Section 4.1).

Processors multicast coherence requests to a predicted destination set
on a totally-ordered interconnect.  The minimal destination set always
includes the requester and the home node.  The home node's directory
checks sufficiency:

- **Sufficient** — the owner responds directly (like snooping); the
  directory updates its state and, for GETX, sharers invalidate.
- **Insufficient** — the directory re-issues the request with a
  corrected destination set (the Sorin et al. optimization), costing a
  latency similar to a directory 3-hop.  A window of vulnerability can
  make the retry insufficient again (modelled by an optional race
  probability); the third retry falls back to broadcast, which is
  guaranteed sufficient.

Training: the requester's predictor trains on the data response (which
carries the responder's identity); every processor that received the
request trains on it as an external request; StickySpatial additionally
receives the directory's corrected set.

Accuracy scoring: while :attr:`MulticastSnoopingProtocol.accuracy`
holds an :class:`~repro.analysis.accuracy.AccuracyReport`, every
replayed request also scores its prediction into it (see
:mod:`repro.analysis.accuracy`).
"""

from __future__ import annotations

import functools
import random
from typing import TYPE_CHECKING, List, Optional

from repro.common.destset import DestinationSet, full_mask, popcount
from repro.common.params import PredictorConfig, SystemConfig
from repro.common.types import MEMORY_NODE, home_node
from repro.coherence.sufficiency import is_sufficient, minimal_set
from repro.predictors.base import DestinationSetPredictor
from repro.predictors.registry import create_predictor
from repro.predictors.static import OraclePredictor
from repro import kernels
from repro.protocols import fused
from repro.protocols.base import (
    CoherenceProtocol,
    LatencyClass,
    OutcomeColumns,
    RequestOutcome,
)
from repro.trace.record import TraceRecord
from repro.trace.trace import ACCESS_BY_CODE, Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.accuracy import AccuracyReport

_MAX_RETRIES = 3  # third retry resorts to broadcast (Section 4.1)


class _PredictorList(list):
    """The per-node predictor list, with refresh-on-mutation.

    The protocol caches hot-path state derived from the predictor
    instances (bound training methods, the needs-truth flag).  Any
    mutation of the list — item assignment by an ablation harness,
    ``append``/``extend``, slicing assignment — refreshes those caches
    immediately, so a swapped-in predictor is trained from the very
    next request whether it arrives via :meth:`handle`, a direct
    ``_handle_fast`` call, or a columnar replay.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "MulticastSnoopingProtocol", items):
        super().__init__(items)
        self._owner = owner

    def _refresh(self) -> None:
        self._owner._prepare_fast_run()

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._refresh()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._refresh()

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self._refresh()
        return result

    def append(self, value):
        super().append(value)
        self._refresh()

    def extend(self, values):
        super().extend(values)
        self._refresh()

    def insert(self, index, value):
        super().insert(index, value)
        self._refresh()

    def pop(self, index=-1):
        value = super().pop(index)
        self._refresh()
        return value

    def remove(self, value):
        super().remove(value)
        self._refresh()

    def clear(self):
        super().clear()
        self._refresh()

    def sort(self, **kwargs):
        super().sort(**kwargs)
        self._refresh()

    def reverse(self):
        super().reverse()
        self._refresh()


class MulticastSnoopingProtocol(CoherenceProtocol):
    """Multicast snooping driven by per-node destination-set predictors."""

    name = "multicast-snooping"

    def __init__(
        self,
        config: SystemConfig,
        predictor: str = "group",
        predictor_config: Optional[PredictorConfig] = None,
        race_probability: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(config)
        if not 0.0 <= race_probability < 1.0:
            raise ValueError("race_probability must be in [0, 1)")
        self.predictor_name = predictor
        self.predictor_config = (
            predictor_config if predictor_config is not None
            else PredictorConfig()
        )
        self.race_probability = race_probability
        self._race_rng = random.Random(seed)
        instances: List[DestinationSetPredictor] = []
        for node in range(config.n_processors):
            instance = create_predictor(
                predictor, config.n_processors, self.predictor_config
            )
            if isinstance(instance, OraclePredictor):
                instance.bind(self.state, node)
            instances.append(instance)
        self._full_mask = full_mask(config.n_processors)
        self._apply_fast = self.state.apply_fast
        self._use_pc_index = self.predictor_config.use_pc_index
        self._granularity = self.predictor_config.index_granularity
        #: When set, every replayed request scores its prediction into
        #: this report (the accuracy analysis sets it for the measured
        #: half of a trace).
        self.accuracy: Optional["AccuracyReport"] = None
        self.predictors = instances

    @property
    def predictors(self) -> List[DestinationSetPredictor]:
        """The per-node predictors (index = node id).

        The returned sequence refreshes the protocol's hot-path
        caches on any mutation (item assignment, append, ...), so
        ablation harnesses can swap instances in at will.
        """
        return self._predictors

    @predictors.setter
    def predictors(self, instances: List[DestinationSetPredictor]) -> None:
        self._predictors = _PredictorList(self, instances)
        self._prepare_fast_run()

    def _prepare_fast_run(self) -> None:
        # Subclasses and ablation harnesses may swap predictors in
        # after construction; whole-list assignment lands in the
        # property setter and item-level mutation in _PredictorList,
        # both of which re-run this refresh immediately.  Columnar
        # replays refresh once more on entry, which also covers
        # subclasses that replace ``_predictors`` wholesale.
        self._train_external_fns = [
            p.train_external_key for p in self._predictors
        ]
        # Directory-feedback training is a no-op for most policies;
        # skip building the truth set per request unless it is needed.
        self._needs_truth = any(
            type(p).train_truth
            is not DestinationSetPredictor.train_truth
            for p in self._predictors
        )

    # ------------------------------------------------------------------
    def _run_columns(
        self, trace: Trace, out: Optional[OutcomeColumns] = None
    ) -> None:
        """Batched columnar replay (see :mod:`repro.protocols.fused`).

        Picks the fastest applicable tier: the native replay, then the
        fully-inlined Group loop, a policy
        :class:`~repro.predictors.base.FusedKernel` skeleton, or the
        generic per-record loop with fused external training batches.
        Subclasses that override ``_handle_fast`` keep the base
        per-record loop, and so does a scored run (``accuracy`` set)
        that the native tier declines: the Python fused tiers never
        score.
        """
        self._prepare_fast_run()
        predictors = self._predictors
        if (
            type(self)._handle_fast
            is not MulticastSnoopingProtocol._handle_fast
            or not predictors
        ):
            super()._run_columns(trace, out)
            return
        first_type = type(predictors[0])
        homogeneous = all(type(p) is first_type for p in predictors)
        native = None
        python_tier = functools.partial(fused.run_generic, self, trace, out)
        if homogeneous and not self._needs_truth and fused.group_uniform(
            predictors
        ):
            native = kernels.try_group_replay
            python_tier = functools.partial(fused.run_group, self, trace, out)
        else:
            kernel = (
                first_type.fused_kernel(predictors) if homogeneous
                else None
            )
            if kernel is not None and (
                not self._needs_truth or kernel.train_truth is not None
            ):
                native = kernels.try_policy_replay
                python_tier = functools.partial(
                    fused.run_kernel, self, trace, kernel, out
                )
        if native is not None and native(self, trace, out):
            return
        if self.accuracy is not None:
            super()._run_columns(trace, out)
        else:
            python_tier()

    # ------------------------------------------------------------------
    def _handle(self, record: TraceRecord) -> RequestOutcome:
        n = self.config.n_processors
        requester = record.requester
        home = home_node(record.address, n, self.config.block_size)
        minimal = minimal_set(
            requester, record.address, n, self.config.block_size
        )

        predictor = self.predictors[requester]
        predicted = predictor.predict(record.address, record.pc, record.access)
        destination = predicted | minimal

        pre_state = self.state.lookup(record.address)
        sufficient = is_sufficient(
            destination,
            pre_state,
            requester,
            record.access,
            record.address,
            self.config.block_size,
        )
        coherence = self.state.apply(record)
        if self.accuracy is not None:
            minimal_bits = minimal._bits
            self.accuracy.score(
                destination._bits & ~minimal_bits,
                coherence.required._bits & ~minimal_bits,
            )

        # Initial multicast: delivered to every member but the requester.
        request_messages = destination.count() - 1
        delivered = destination

        retries = 0
        retry_messages = 0
        if not sufficient:
            corrected = coherence.required | minimal
            while True:
                retries += 1
                if retries >= _MAX_RETRIES:
                    corrected = DestinationSet.broadcast(n)
                retry_messages += corrected.count() - 1
                delivered = delivered | corrected
                raced = (
                    retries < _MAX_RETRIES
                    and self._race_rng.random() < self.race_probability
                )
                if not raced:
                    break

        if not sufficient:
            latency_class = LatencyClass.INDIRECT
        elif coherence.responder == MEMORY_NODE:
            latency_class = LatencyClass.MEMORY
        else:
            latency_class = LatencyClass.CACHE_TO_CACHE_DIRECT

        self._train(record, coherence, delivered, home)
        return RequestOutcome(
            coherence=coherence,
            request_messages=request_messages,
            forward_messages=0,
            retry_messages=retry_messages,
            data_messages=1,
            indirection=not sufficient,
            latency_class=latency_class,
            retries=retries,
        )

    # ------------------------------------------------------------------
    def _handle_fast(self, address, pc, requester, code, block):
        """Scalar kernel: identical transaction logic on raw bitmasks."""
        n = self.config.n_processors
        access = ACCESS_BY_CODE[code]
        key = (
            pc if self._use_pc_index else address // self._granularity
        )
        predictor = self._predictors[requester]
        predicted = predictor.predict_key(key, address, pc, access)

        home = (block >> self._block_shift) % n
        minimal = (1 << requester) | (1 << home)
        destination = predicted._bits | minimal

        responder, required = self._apply_fast(block, requester, code)[2:]
        if self.accuracy is not None:
            self.accuracy.score(
                destination & ~minimal, required & ~minimal
            )
        # The destination always covers the requester and home (the
        # minimal set is unioned in), so sufficiency reduces to
        # covering the required processors (Section 4.1).
        sufficient = required & ~destination == 0

        # Initial multicast: delivered to every member but the requester.
        request_messages = popcount(destination) - 1
        delivered = destination

        retries = 0
        retry_messages = 0
        if sufficient:
            latency_ns = (
                self._lat_memory if responder == MEMORY_NODE
                else self._lat_direct
            )
        else:
            corrected = required | minimal
            retries = 1
            retry_messages = popcount(corrected) - 1
            delivered |= corrected
            if self.race_probability:
                # Window-of-vulnerability races re-issue the retry; the
                # third retry falls back to broadcast (Section 4.1).
                while (
                    retries < _MAX_RETRIES
                    and self._race_rng.random() < self.race_probability
                ):
                    retries += 1
                    if retries >= _MAX_RETRIES:
                        corrected = self._full_mask
                    retry_messages += popcount(corrected) - 1
                    delivered |= corrected
            latency_ns = self._lat_indirect

        # Training (Section 3.1): data-response training at the
        # requester, external-request training at every node that
        # received the request, directory feedback when the policy
        # consumes it.
        predictor.train_response_key(
            key, address, pc, responder, access, required != 0
        )
        train_external_fns = self._train_external_fns
        external = delivered & ~(1 << requester)
        while external:
            low = external & -external
            train_external_fns[low.bit_length() - 1](
                key, address, pc, requester, access
            )
            external ^= low
        if self._needs_truth:
            predictor.train_truth(
                address,
                pc,
                DestinationSet._from_bits(n, required | (1 << home)),
            )

        return (
            request_messages, 0, retry_messages, 1,
            0 if sufficient else 1, latency_ns, retries,
        )

    # ------------------------------------------------------------------
    def _train(self, record, coherence, delivered, home) -> None:
        requester = record.requester
        # Data-response training at the requester; entries allocate only
        # when the minimal set proved insufficient (Section 3.1).
        allocate = not coherence.required.is_empty()
        self.predictors[requester].train_response(
            record.address,
            record.pc,
            coherence.responder,
            record.access,
            allocate,
        )
        # External-request training at every node that saw the request.
        for node in delivered:
            if node != requester:
                self.predictors[node].train_external(
                    record.address, record.pc, requester, record.access
                )
        # Directory feedback (StickySpatial's training signal).
        truth = coherence.required.add(home)
        self.predictors[requester].train_truth(
            record.address, record.pc, truth
        )
