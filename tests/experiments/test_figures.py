"""Tests for the Figure 2 and 3 entry points (scaled down for speed)."""

from repro.config import default_config
from repro.experiments.figures import FIGURE2_PAIRS, figure2, figure3


def test_figure2_default_pairs_are_digit_reconstruction():
    assert FIGURE2_PAIRS == ((30, 4), (30, 8), (30, 2), (50, 8))


def test_figure2_small_sweep_shape():
    data = figure2(
        config=default_config(),
        olap_limits=(8_000.0, 24_000.0),
        pairs=((8, 3),),
        period_seconds=30.0,
        num_periods=2,
        warmup_periods=1,
    )
    series = data[(8, 3)]
    assert [limit for limit, _ in series] == [8_000.0, 24_000.0]
    assert all(rt is not None for _, rt in series)


def test_figure3_schedule_payload():
    counts = figure3()
    assert set(counts) == {"class1", "class2", "class3"}
    assert len(counts["class3"]) == 18
