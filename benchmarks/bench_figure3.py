"""Figure 3: the 18-period workload (client counts per class).

The exact counts are a constrained reconstruction (DESIGN.md §2); this
bench prints the schedule and asserts every constraint the paper states.
"""

from __future__ import annotations

from repro.experiments.figures import figure3


def test_workload_schedule(report):
    counts = figure3()
    report("")
    report("=== Figure 3: workload (number of clients per period) ===")
    report("{:>7} | {:>7} | {:>7} | {:>7}".format("period", "class1", "class2", "class3"))
    report("-" * 40)
    for period in range(18):
        report(
            "{:>7} | {:>7} | {:>7} | {:>7}".format(
                period + 1,
                counts["class1"][period],
                counts["class2"][period],
                counts["class3"][period],
            )
        )

    # Stated constraints (Section 4):
    assert len(counts["class3"]) == 18
    assert all(2 <= c <= 6 for c in counts["class1"])
    assert all(2 <= c <= 6 for c in counts["class2"])
    assert all(15 <= c <= 25 for c in counts["class3"])
    # OLTP intensity cycle: highs at 3,6,...,18, lows at 1,4,...,16.
    assert all(counts["class3"][p - 1] == 25 for p in (3, 6, 9, 12, 15, 18))
    assert all(counts["class3"][p - 1] == 15 for p in (1, 4, 7, 10, 13, 16))
    # Period 18 is the heaviest: 2 + 6 + 25 clients.
    assert (counts["class1"][17], counts["class2"][17], counts["class3"][17]) == (2, 6, 25)
