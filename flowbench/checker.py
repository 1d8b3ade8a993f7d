"""Output checks written apart from the placer.

Neither ``repro.lg.check_legal`` nor ``PlacementDB.hpwl`` is used here:
the legality sweep and the HPWL are recomputed from plain arrays, so a
fault in the program's own checker or wirelength code cannot hide a
fault in the placement.  :func:`layout_from_db` is the only function
that touches a ``PlacementDB``, and it only copies arrays out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: coordinate tolerance (design units) for alignment and overlap tests
TOL = 1e-6


@dataclass
class Layout:
    """The geometry a legality sweep needs, as plain arrays.

    Cell positions are lower-left corners.  Each row ``k`` spans
    ``[row_x[k], row_x[k] + row_sites[k] * row_site_w[k])`` at height
    ``row_y[k]`` .. ``row_y[k] + row_h[k]``.
    """

    die: tuple  # (xl, yl, xh, yh)
    row_y: np.ndarray
    row_h: np.ndarray
    row_x: np.ndarray
    row_sites: np.ndarray
    row_site_w: np.ndarray
    width: np.ndarray
    height: np.ndarray
    movable: np.ndarray  # bool per cell
    fixed_x: np.ndarray  # input positions; only fixed cells' entries used
    fixed_y: np.ndarray


def layout_from_db(db) -> Layout:
    rows = db.region.rows()
    r = db.region
    return Layout(
        die=(float(r.xl), float(r.yl), float(r.xh), float(r.yh)),
        row_y=np.array([row.y for row in rows], dtype=np.float64),
        row_h=np.array([row.height for row in rows], dtype=np.float64),
        row_x=np.array([row.x for row in rows], dtype=np.float64),
        row_sites=np.array([row.num_sites for row in rows], dtype=np.int64),
        row_site_w=np.array([row.site_width for row in rows],
                            dtype=np.float64),
        width=np.asarray(db.cell_width, dtype=np.float64).copy(),
        height=np.asarray(db.cell_height, dtype=np.float64).copy(),
        movable=np.asarray(db.movable, dtype=bool).copy(),
        fixed_x=np.asarray(db.cell_x, dtype=np.float64).copy(),
        fixed_y=np.asarray(db.cell_y, dtype=np.float64).copy(),
    )


def legality_violations(layout: Layout, x, y) -> dict:
    """Count violations of the final placement ``(x, y)``.

    ``outside``: a movable cell leaves the die or its row's extent;
    ``off_row``: its bottom edge is not on a row; ``off_site``: its left
    edge is not on its row's site grid; ``overlaps``: it overlaps an
    earlier movable cell in a row it occupies; ``macro_overlaps``: it
    overlaps a fixed cell of positive area; ``fixed_moved``: a fixed
    cell is not where the input put it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lay = layout
    mov = np.flatnonzero(lay.movable)
    mx, my = x[mov], y[mov]
    mw, mh = lay.width[mov], lay.height[mov]
    xl, yl, xh, yh = lay.die

    outside = ((mx < xl - TOL) | (mx + mw > xh + TOL)
               | (my < yl - TOL) | (my + mh > yh + TOL))

    order = np.argsort(lay.row_y, kind="stable")
    row_y = lay.row_y[order]
    pos = np.clip(np.searchsorted(row_y, my - TOL), 0, len(row_y) - 1)
    row = order[pos]
    on_row = np.abs(lay.row_y[row] - my) <= TOL
    row_lo = lay.row_x[row]
    row_hi = row_lo + lay.row_sites[row] * lay.row_site_w[row]
    outside |= on_row & ((mx < row_lo - TOL) | (mx + mw > row_hi + TOL))
    sites = (mx - row_lo) / lay.row_site_w[row]
    off_site = on_row & (np.abs(sites - np.round(sites)) > TOL)

    # a cell occupies every row whose band intersects [y, y + h)
    overlapping = np.zeros(len(mov), dtype=bool)
    for k in range(len(lay.row_y)):
        lo, hi = lay.row_y[k], lay.row_y[k] + lay.row_h[k]
        members = np.flatnonzero((my < hi - TOL) & (my + mh > lo + TOL))
        if len(members) < 2:
            continue
        members = members[np.argsort(mx[members], kind="stable")]
        right = np.maximum.accumulate(mx[members] + mw[members])
        hit = mx[members[1:]] < right[:-1] - TOL
        overlapping[members[1:][hit]] = True

    macro_hit = np.zeros(len(mov), dtype=bool)
    fixed = np.flatnonzero(~lay.movable & (lay.width > 0)
                           & (lay.height > 0))
    for f in fixed:
        fx, fy = lay.fixed_x[f], lay.fixed_y[f]
        macro_hit |= ((mx < fx + lay.width[f] - TOL)
                      & (mx + mw > fx + TOL)
                      & (my < fy + lay.height[f] - TOL)
                      & (my + mh > fy + TOL))

    fixed_all = np.flatnonzero(~lay.movable)
    moved = ((np.abs(x[fixed_all] - lay.fixed_x[fixed_all]) > TOL)
             | (np.abs(y[fixed_all] - lay.fixed_y[fixed_all]) > TOL))

    return {
        "outside": int(outside.sum()),
        "off_row": int((~on_row).sum()),
        "off_site": int(off_site.sum()),
        "overlaps": int(overlapping.sum()),
        "macro_overlaps": int(macro_hit.sum()),
        "fixed_moved": int(moved.sum()),
    }


def hpwl(x, y, pin_cell, pin_net, pin_dx, pin_dy, net_weight) -> float:
    """Net-weighted half-perimeter wirelength.

    Pin ``p`` sits at ``(x[pin_cell[p]] + pin_dx[p], y[...] + pin_dy[p])``
    (offsets from the cell's lower-left corner).  Nets without pins add
    nothing.  The per-net terms are summed exactly (``math.fsum``).
    """
    pin_net = np.asarray(pin_net)
    order = np.argsort(pin_net, kind="stable")
    nets = pin_net[order]
    cells = np.asarray(pin_cell)[order]
    px = np.asarray(x, dtype=np.float64)[cells] \
        + np.asarray(pin_dx, dtype=np.float64)[order]
    py = np.asarray(y, dtype=np.float64)[cells] \
        + np.asarray(pin_dy, dtype=np.float64)[order]
    if len(nets) == 0:
        return 0.0
    starts = np.flatnonzero(np.r_[True, nets[1:] != nets[:-1]])
    span = (np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
            + np.maximum.reduceat(py, starts)
            - np.minimum.reduceat(py, starts))
    weights = np.asarray(net_weight, dtype=np.float64)[nets[starts]]
    return math.fsum((span * weights).tolist())


def db_hpwl(db, x, y) -> float:
    """:func:`hpwl` over the netlist arrays of ``db``."""
    return hpwl(x, y, db.pin_cell, db.pin_net, db.pin_offset_x,
                db.pin_offset_y, db.net_weight)
