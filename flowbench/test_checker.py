"""Tests of the benchmark's own output checks, on hand-built placements.

    python3 -m pytest flowbench/test_checker.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import Layout, hpwl, legality_violations  # noqa: E402
from spans import span_table  # noqa: E402


def _layout():
    """A 10 x 3 die with three unit-height rows of ten unit sites.

    Cells 0..2 are movable (widths 2, 3, 1); cell 3 is a fixed 2 x 2
    macro at (6, 1); cell 4 is a zero-area I/O pad on the die edge.
    """
    return Layout(
        die=(0.0, 0.0, 10.0, 3.0),
        row_y=np.array([0.0, 1.0, 2.0]),
        row_h=np.ones(3),
        row_x=np.zeros(3),
        row_sites=np.full(3, 10),
        row_site_w=np.ones(3),
        width=np.array([2.0, 3.0, 1.0, 2.0, 0.0]),
        height=np.array([1.0, 1.0, 1.0, 2.0, 0.0]),
        movable=np.array([True, True, True, False, False]),
        fixed_x=np.array([0.0, 0.0, 0.0, 6.0, 10.0]),
        fixed_y=np.array([0.0, 0.0, 0.0, 1.0, 1.5]),
    )


# a legal placement: two abutting cells in row 0, one left of the macro
LEGAL_X = np.array([0.0, 2.0, 5.0, 6.0, 10.0])
LEGAL_Y = np.array([0.0, 0.0, 1.0, 1.0, 1.5])


def _moved(cell, x=None, y=None):
    xs, ys = LEGAL_X.copy(), LEGAL_Y.copy()
    if x is not None:
        xs[cell] = x
    if y is not None:
        ys[cell] = y
    return legality_violations(_layout(), xs, ys)


def test_legal_placement_has_no_violation():
    assert not any(legality_violations(_layout(), LEGAL_X, LEGAL_Y).values())


def test_overlap_is_caught():
    # cell 1 (x 1..4) overlaps cell 0 (x 0..2) in row 0
    report = _moved(1, x=1.0)
    assert report["overlaps"] == 1
    assert sum(report.values()) == 1


def test_overlap_behind_a_short_cell_is_caught():
    # row 0: cell 1 at 0..3, cell 2 at 1..2 inside it, cell 0 at 2..4;
    # cell 0 clears its left neighbour (cell 2) but not cell 1
    xs, ys = LEGAL_X.copy(), LEGAL_Y.copy()
    xs[:3] = [2.0, 0.0, 1.0]
    ys[2] = 0.0
    assert legality_violations(_layout(), xs, ys)["overlaps"] == 2


def test_off_row_cell_is_caught():
    report = _moved(2, y=1.5)
    assert report["off_row"] == 1
    assert report["overlaps"] == 0 and report["off_site"] == 0


def test_off_site_cell_is_caught():
    report = _moved(2, x=4.5)
    assert report["off_site"] == 1
    assert sum(report.values()) == 1


@pytest.mark.parametrize("x, y", [(9.5, 2.0), (-1.0, 2.0), (3.0, 3.0)])
def test_cell_outside_the_die_is_caught(x, y):
    assert _moved(2, x=x, y=y)["outside"] == 1


def test_overlap_with_fixed_macro_is_caught():
    # cell 2 at (7, 2) lies inside the macro (6..8, 1..3)
    report = _moved(2, x=7.0, y=2.0)
    assert report["macro_overlaps"] == 1
    assert sum(report.values()) == 1


def test_moved_fixed_cell_is_caught():
    assert _moved(3, x=5.0)["fixed_moved"] == 1


def test_hpwl_worked_by_hand():
    # net 0, weight 2: pins at (0+1, 0+0.5), (4+0, 2+1), (2+2, 1+0)
    #   x span 4 - 1 = 3, y span 3 - 0.5 = 2.5 -> 2 * 5.5 = 11
    # net 1, weight 1: pins at (0+0, 0+0), (2+0.5, 1+0.5)
    #   x span 2.5, y span 1.5 -> 4
    # net 2 has no pins and adds nothing
    x = np.array([0.0, 4.0, 2.0])
    y = np.array([0.0, 2.0, 1.0])
    pin_cell = np.array([0, 1, 0, 2, 2])
    pin_net = np.array([0, 0, 1, 0, 1])
    pin_dx = np.array([1.0, 0.0, 0.0, 2.0, 0.5])
    pin_dy = np.array([0.5, 1.0, 0.0, 0.0, 0.5])
    weight = np.array([2.0, 1.0, 7.0])
    assert hpwl(x, y, pin_cell, pin_net, pin_dx, pin_dy, weight) == 15.0


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "ts": 0.0, "dur": 100.0, "pid": 1, "tid": 1},
        {"name": "b", "ts": 10.0, "dur": 30.0, "pid": 1, "tid": 1},
        {"name": "c", "ts": 15.0, "dur": 10.0, "pid": 1, "tid": 1},
        {"name": "b", "ts": 50.0, "dur": 50.0, "pid": 1, "tid": 1},
        {"name": "a", "ts": 200.0, "dur": 5.0, "pid": 1, "tid": 1},
    ]
    table = span_table(spans)
    assert table["a"]["count"] == 2
    assert table["a"]["total_s"] == pytest.approx(105e-6)
    assert table["a"]["self_s"] == pytest.approx(25e-6)
    assert table["b"]["self_s"] == pytest.approx(70e-6)
    assert table["c"]["self_s"] == pytest.approx(10e-6)
