"""The percentile helper refuses to guess; the spread rule matches the contract."""

import statistics

import pytest

from benchmarks.e2e import stats


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(999))
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(values, 99)
    assert stats.percentile(list(range(1000)), 99) == pytest.approx(989.01)
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(21)), 50) == 10


def test_highest_supported_tail_steps_down_with_the_sample():
    assert stats.highest_supported_tail(1000) == 99
    assert stats.highest_supported_tail(999) == 95
    assert stats.highest_supported_tail(150) == 90
    assert stats.highest_supported_tail(40) == 75
    assert stats.highest_supported_tail(20) == 50
    with pytest.raises(stats.InsufficientSamples):
        stats.highest_supported_tail(19)


def test_segmented_tail_is_not_owned_by_one_hiccup():
    # 5 s at 1000 samples/s, flat 1.0 except one 200-sample stall.
    samples = [(i / 1000.0, 1.0) for i in range(5000)]
    for i in range(2000, 2200):
        samples[i] = (samples[i][0], 50.0)
    whole = stats.percentile([v for _, v in samples], 99)
    segmented = stats.segmented_tail(samples, 99, 0.0, 5.0, 5)
    assert whole == 50.0
    assert segmented == 1.0


def test_segmented_tail_uses_fewer_segments_when_samples_are_short():
    samples = [(i / 1000.0, float(i)) for i in range(1200)]
    # 5 segments of 240 cannot hold a p99; one segment of 1200 can.
    assert stats.segmented_tail(samples, 99, 0.0, 1.2, 5) == stats.percentile(
        [v for _, v in samples], 99
    )


def test_quartile_spread_is_the_contracts_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    got = stats.quartile_spread(values)
    assert got["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert got["n"] == 10


def test_quiet_slices_is_the_mean_of_the_two_best():
    assert stats.quiet_slices([5.0, 4.0, 9.0, 4.4, 30.0], "lower") == 4.2
    assert stats.quiet_slices([100.0, 400.0, 300.0, 10.0, 380.0], "higher") == 390.0
    assert stats.quiet_slices([7.0], "lower") == 7.0
