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
