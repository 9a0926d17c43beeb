"""Unit tests for the predictor accuracy analysis."""

import pytest

from repro.analysis.accuracy import (
    AccuracyReport,
    PredictionOutcome,
    prediction_accuracy,
)
from repro.common.params import PredictorConfig, SystemConfig

from tests.conftest import gets, getx, make_trace


def pingpong_trace(n_rounds=40, n_processors=16):
    records = []
    for i in range(n_rounds):
        node = i % 2
        records.append(gets(0x1000, node, pc=0x10))
        records.append(getx(0x1000, node, pc=0x14))
    return make_trace(records, n_processors=n_processors)


UNBOUNDED = PredictorConfig(n_entries=None, index_granularity=64)


class TestAccuracyReport:
    def test_empty_report_is_vacuously_perfect(self):
        report = AccuracyReport(policy="x", workload="y")
        assert report.coverage_pct == 100.0
        assert report.precision_pct == 100.0
        assert report.outcome_pct(PredictionOutcome.EXACT) == 0.0

    def test_percentages(self):
        report = AccuracyReport(
            policy="x",
            workload="y",
            predictions=10,
            required_nodes=8,
            covered_nodes=6,
            predicted_extra_nodes=12,
            useful_extra_nodes=6,
        )
        report.outcomes[PredictionOutcome.EXACT] = 5
        assert report.coverage_pct == pytest.approx(75.0)
        assert report.precision_pct == pytest.approx(50.0)
        assert report.outcome_pct(PredictionOutcome.EXACT) == 50.0


class TestPredictionAccuracy:
    def test_broadcast_has_full_coverage_low_precision(self):
        report = prediction_accuracy(
            pingpong_trace(), "broadcast", predictor_config=UNBOUNDED
        )
        assert report.coverage_pct == 100.0
        assert report.precision_pct < 25.0
        assert report.outcomes[PredictionOutcome.UNDER] == 0

    def test_minimal_has_zero_coverage(self):
        report = prediction_accuracy(
            pingpong_trace(), "minimal", predictor_config=UNBOUNDED
        )
        assert report.coverage_pct == 0.0
        # Everything required was missed entirely.
        assert report.outcomes[PredictionOutcome.OVER] == 0
        assert report.outcomes[PredictionOutcome.EXACT] == 0

    def test_oracle_is_exact(self):
        report = prediction_accuracy(
            pingpong_trace(), "oracle", predictor_config=UNBOUNDED
        )
        assert report.coverage_pct == 100.0
        assert report.precision_pct == 100.0
        assert report.outcomes[PredictionOutcome.UNDER] == 0
        assert report.outcomes[PredictionOutcome.OVER] == 0
        assert report.outcomes[PredictionOutcome.MIXED] == 0

    def test_owner_learns_pairwise_pattern(self):
        report = prediction_accuracy(
            pingpong_trace(200),
            "owner",
            predictor_config=UNBOUNDED,
            warmup_fraction=0.5,
        )
        # Steady-state pairwise sharing is Owner's design target.
        assert report.coverage_pct > 90.0
        assert report.precision_pct > 90.0

    def test_counts_only_post_warmup(self):
        trace = pingpong_trace(40)
        report = prediction_accuracy(
            trace, "minimal", predictor_config=UNBOUNDED,
            warmup_fraction=0.5,
        )
        assert report.predictions == len(trace) // 2

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1])
    def test_warmup_fraction_out_of_range_rejected(self, fraction):
        # A warm-up covering the whole trace would score nothing and
        # report a vacuously perfect 100% coverage and precision.
        with pytest.raises(ValueError, match=r"warmup_fraction"):
            prediction_accuracy(
                pingpong_trace(), "owner", predictor_config=UNBOUNDED,
                warmup_fraction=fraction,
            )

    def test_protocol_scores_nothing_by_default(self):
        from repro.protocols.multicast import MulticastSnoopingProtocol

        protocol = MulticastSnoopingProtocol(
            SystemConfig(n_processors=16), "owner", UNBOUNDED
        )
        assert protocol.accuracy is None
        protocol.run(pingpong_trace())
        assert protocol.accuracy is None


class TestScore:
    """The shared mask helper behind every scoring path."""

    @pytest.mark.parametrize(
        "extras, need, outcome",
        [
            (0b0000, 0b0000, PredictionOutcome.TRIVIAL),
            (0b0110, 0b0110, PredictionOutcome.EXACT),
            (0b0111, 0b0110, PredictionOutcome.OVER),
            (0b0100, 0b0000, PredictionOutcome.OVER),
            (0b0100, 0b0110, PredictionOutcome.UNDER),
            (0b0000, 0b0010, PredictionOutcome.UNDER),
            (0b1100, 0b0110, PredictionOutcome.MIXED),
        ],
    )
    def test_outcome_classes(self, extras, need, outcome):
        report = AccuracyReport(policy="x", workload="y")
        report.score(extras, need)
        assert report.outcomes[outcome] == 1
        assert sum(report.outcomes.values()) == 1

    def test_counters_and_batch_fold_agree(self):
        scored = AccuracyReport(policy="x", workload="y")
        scored.score(0b1100, 0b0110)
        scored.score(1 << 127, 1 << 127 | 1 << 64)
        folded = AccuracyReport(policy="x", workload="y")
        # predictions, required, covered, extra, then the five classes.
        folded.add_counts(2, 4, 2, 3, 0, 0, 0, 1, 1)
        assert scored == folded
        assert scored.covered_nodes == scored.useful_extra_nodes == 2
