"""Predictor accuracy analysis (beyond the paper's aggregate metrics).

The paper evaluates predictors end-to-end (indirections and messages).
This module opens the box: for every prediction it scores the
predicted destination set against the required one, yielding

- **coverage** (recall): fraction of required processors that were in
  the predicted set — 100% coverage on a request means no retry;
- **precision**: fraction of predicted *extra* processors (beyond the
  minimal set) that were actually required — low precision is pure
  bandwidth waste;
- the exact/over/under/mixed breakdown of prediction outcomes.

These decompose *why* a policy sits where it does on the Figure 5
plane: Owner fails coverage on wide write sets, Broadcast-If-Shared
buys coverage with near-zero precision, Group balances both.

Scoring happens inside the replay that makes the predictions: a
:class:`~repro.protocols.multicast.MulticastSnoopingProtocol` whose
``accuracy`` attribute holds a report scores every request it replays
into it.  The record path (``_handle``) and the scalar columnar path
(``_handle_fast``) both call :meth:`AccuracyReport.score`; the
compiled ``policy_replay`` kernel accumulates the same counters in C
and folds them in through :meth:`AccuracyReport.add_counts`.  The
Python fused tiers never score — a scored run that the native tier
declines takes the scalar loop.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

from repro.common.destset import popcount
from repro.common.params import PredictorConfig, SystemConfig
from repro.protocols.multicast import MulticastSnoopingProtocol
from repro.trace.trace import Trace


class PredictionOutcome(enum.Enum):
    """Classification of one prediction against the required set."""

    EXACT = "exact"        # predicted extras == required exactly
    OVER = "over"          # superset of required (wasted messages)
    UNDER = "under"        # subset of required (retry)
    MIXED = "mixed"        # both missing and spurious nodes
    TRIVIAL = "trivial"    # nothing required, nothing predicted


@dataclasses.dataclass
class AccuracyReport:
    """Aggregated prediction-quality statistics for one policy."""

    policy: str
    workload: str
    predictions: int = 0
    required_nodes: int = 0
    covered_nodes: int = 0
    predicted_extra_nodes: int = 0
    useful_extra_nodes: int = 0
    outcomes: Dict[PredictionOutcome, int] = dataclasses.field(
        default_factory=lambda: {o: 0 for o in PredictionOutcome}
    )

    # ------------------------------------------------------------------
    @property
    def coverage_pct(self) -> float:
        """Percent of required processors the predictions covered."""
        if not self.required_nodes:
            return 100.0
        return 100.0 * self.covered_nodes / self.required_nodes

    @property
    def precision_pct(self) -> float:
        """Percent of predicted extra processors that were required."""
        if not self.predicted_extra_nodes:
            return 100.0
        return 100.0 * self.useful_extra_nodes / self.predicted_extra_nodes

    def outcome_pct(self, outcome: PredictionOutcome) -> float:
        """Percent of predictions with the given outcome."""
        if not self.predictions:
            return 0.0
        return 100.0 * self.outcomes[outcome] / self.predictions

    # ------------------------------------------------------------------
    def score(self, extras: int, need: int) -> None:
        """Score one prediction.

        ``extras`` is the bitmask of predicted destinations beyond the
        minimal set (requester + home); ``need`` the bitmask of
        processors beyond the minimal set that had to see the request.
        """
        self.predictions += 1
        covered = popcount(need & extras)
        self.required_nodes += popcount(need)
        self.covered_nodes += covered
        self.predicted_extra_nodes += popcount(extras)
        self.useful_extra_nodes += covered
        if not need and not extras:
            outcome = PredictionOutcome.TRIVIAL
        elif extras == need:
            outcome = PredictionOutcome.EXACT
        elif not need & ~extras:
            outcome = PredictionOutcome.OVER
        elif not extras & ~need:
            outcome = PredictionOutcome.UNDER
        else:
            outcome = PredictionOutcome.MIXED
        self.outcomes[outcome] += 1

    def add_counts(
        self,
        predictions: int,
        required: int,
        covered: int,
        predicted_extra: int,
        trivial: int,
        exact: int,
        over: int,
        under: int,
        mixed: int,
    ) -> None:
        """Fold a batch of :meth:`score` results (the compiled replay's
        counters; covered and useful extra nodes are one intersection).
        """
        self.predictions += predictions
        self.required_nodes += required
        self.covered_nodes += covered
        self.predicted_extra_nodes += predicted_extra
        self.useful_extra_nodes += covered
        outcomes = self.outcomes
        outcomes[PredictionOutcome.TRIVIAL] += trivial
        outcomes[PredictionOutcome.EXACT] += exact
        outcomes[PredictionOutcome.OVER] += over
        outcomes[PredictionOutcome.UNDER] += under
        outcomes[PredictionOutcome.MIXED] += mixed

    def __str__(self) -> str:
        return (
            f"{self.policy:20s} coverage={self.coverage_pct:5.1f}%  "
            f"precision={self.precision_pct:5.1f}%  "
            f"exact={self.outcome_pct(PredictionOutcome.EXACT):5.1f}%  "
            f"under={self.outcome_pct(PredictionOutcome.UNDER):5.1f}%"
        )


def prediction_accuracy(
    trace: Trace,
    policy: str,
    config: Optional[SystemConfig] = None,
    predictor_config: Optional[PredictorConfig] = None,
    warmup_fraction: float = 0.25,
) -> AccuracyReport:
    """Score ``policy``'s predictions over the post-warmup trace.

    ``warmup_fraction`` must lie in [0, 1): a warm-up covering the
    whole trace would score nothing and report a vacuous 100%.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    config = config if config is not None else SystemConfig()
    report = AccuracyReport(policy=policy, workload=trace.name)
    protocol = MulticastSnoopingProtocol(config, policy, predictor_config)
    n_warmup = int(len(trace) * warmup_fraction)
    warmup, measured = trace.split_warmup(n_warmup)
    protocol.run(warmup)
    protocol.accuracy = report
    protocol.run(measured)
    return report
