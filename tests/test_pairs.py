"""The gain rule of tools/pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_match_records():
    # statistics.quantiles' default (exclusive) method, as records.py uses.
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [p - 0.5 for p in parent]
    change[3] = parent[3] + 0.1  # one lost pair of ten: still a gain
    won, gap, spread, passed = pairs.gate(parent, change)
    assert won == 9 and passed
    change[5] = parent[5]  # a tie counts for neither side
    won, _, _, passed = pairs.gate(parent, change)
    assert won == 8 and not passed


def test_gain_needs_a_gap_beyond_the_parents_quartile_distance():
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    q1, median, q3 = pairs.quartiles(parent)
    for shift, expected in ((0.5 * (q3 - q1), False), (1.01 * (q3 - q1), True)):
        won, gap, spread, passed = pairs.gate(parent, [p - shift for p in parent])
        assert won == 10
        assert gap == pytest.approx(shift) and spread == pytest.approx(q3 - q1)
        assert passed == expected


def test_higher_is_better():
    parent = [0.90, 0.91, 0.92, 0.93]
    won, gap, _, passed = pairs.gate(parent, [0.99] * 4, better="higher")
    assert won == 4 and gap > 0 and passed
    won, gap, _, passed = pairs.gate(parent, [0.5] * 4, better="higher")
    assert won == 0 and gap < 0 and not passed


def test_unpaired_values_rejected():
    with pytest.raises(ValueError):
        pairs.gate([1.0, 2.0], [1.0])


def test_bound_verdict_within_and_beyond():
    parent = [100.0, 100.5, 101.0, 101.5, 102.0, 100.2, 100.8, 101.2, 101.8, 100.4]
    _, median, _ = pairs.quartiles(parent)
    for shift, expected in ((0.04, "within bound"), (0.06, "worse beyond bound")):
        change = [p + shift * median for p in parent]
        parent_median, change_median, verdict = pairs.bound_verdict(parent, change, "lower", 0.05)
        assert parent_median == pytest.approx(median)
        assert change_median == pytest.approx(median * (1 + shift))
        assert verdict == expected
    # A change that is better by any amount stays within the bound.
    assert pairs.bound_verdict(parent, [p / 2 for p in parent], "lower", 0.05)[2] == "within bound"


def test_bound_verdict_higher_is_better():
    parent = [1.0] * 10
    assert pairs.bound_verdict(parent, [0.99] * 10, "higher", 0.02)[2] == "within bound"
    assert pairs.bound_verdict(parent, [0.97] * 10, "higher", 0.02)[2] == "worse beyond bound"
    assert pairs.bound_verdict(parent, [1.5] * 10, "higher", 0.02)[2] == "within bound"


def test_bound_verdict_unresolved_when_the_parent_spreads_beyond_the_bound():
    # Quartile distance 0.5 over a median of 0.8: a 62% spread against a 25%
    # bound resolves neither a worse change nor one that is better in the
    # median only; a change whose every run beats every parent run is better.
    parent = [0.8, 0.8, 0.8, 1.3, 1.3] * 2
    q1, median, q3 = pairs.quartiles(parent)
    assert (q3 - q1) / median > 0.25
    for change in ([3.0] * 10, [0.75] * 9 + [0.85]):
        assert pairs.bound_verdict(parent, change, "lower", 0.25)[2] == "unresolved"
    assert pairs.bound_verdict(parent, [0.7] * 10, "lower", 0.25)[2] == "within bound"
