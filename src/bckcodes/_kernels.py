"""Axiom and property scans, in numpy.

Each scan takes a square table whose distinguished element theta is 0 and
returns one witness per checked law, in law order: the first
violation in lexicographic (x, y, z) order as a tuple of ints, or None.
The n^3 checks build one n x n slice per x and stop at the first x with a
violation, so memory stays O(n^2).
"""
from __future__ import annotations

import numpy as np


def _as_table(table) -> np.ndarray:
    return np.ascontiguousarray(table, dtype=np.int64)


# ---------------------------------------------------------------------------
# axiom and property scans
#
# Violation masks are built by broadcasting; argmax on the boolean mask picks
# the first True in C order, which is exactly the lexicographic scan order.
# ---------------------------------------------------------------------------

def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


def _first_over_x(n: int, violations) -> tuple[int, int, int] | None:
    """First (x, y, z) with violations(x)[y, z] True, scanning x in order."""
    for x in range(n):
        w = _first(violations(x))
        if w is not None:
            return (x, *w)
    return None


def bck_axiom_scan(table) -> tuple:
    t = _as_table(table)
    n = t.shape[0]
    idx = np.arange(n)
    tt = np.ascontiguousarray(t.T)
    # 1: ((x*y)*(x*z))*(z*y) == 0
    w1 = _first_over_x(n, lambda x: t[t[t[x, :, None], t[x, None, :]], tt] != 0)
    # 2: (x*(x*y))*y == 0
    inner = t[idx[:, None], t]                   # inner[x,y] = t[x, t[x,y]]
    v2 = t[inner, idx[None, :]] != 0
    # 3: x*x == 0
    v3 = t.diagonal() != 0
    # 4: x*y == 0 and y*x == 0 imply x == y
    v4 = (t == 0) & (tt == 0)
    np.fill_diagonal(v4, False)
    # 5: 0*x == 0
    v5 = t[0] != 0
    return w1, _first(v2), _first(v3), _first(v4), _first(v5)


def hilbert_axiom_scan(table) -> tuple:
    d = _as_table(table)
    n = d.shape[0]
    idx = np.arange(n)
    # 1: x*(y*x) == 0
    v1 = d[idx[:, None], d.T] != 0
    # 2: (x*(y*z)) * ((x*y)*(x*z)) == 0
    w2 = _first_over_x(n, lambda x: d[d[x][d], d[d[x, :, None], d[x, None, :]]] != 0)
    # 3: antisymmetry through theta
    v3 = (d == 0) & (d.T == 0)
    np.fill_diagonal(v3, False)
    return _first(v1), w2, _first(v3)


def commutative_implicative_scan(table) -> tuple:
    """The two n^2 property checks of a BCK star table."""
    t = _as_table(table)
    idx = np.arange(t.shape[0])
    # commutative: x*(x*y) == y*(y*x)
    left = t[idx[:, None], t]
    v1 = left != left.T
    # implicative: x*(y*x) == x
    v2 = t[idx[:, None], t.T] != idx[:, None]
    return _first(v1), _first(v2)


def positive_implicative_scan(table) -> tuple[int, int, int] | None:
    """The n^3 check (x*y)*z == (x*z)*(y*z) of a BCK star table."""
    t = _as_table(table)
    idx = np.arange(t.shape[0])
    return _first_over_x(len(t), lambda x: t[t[x, :, None], idx] != t[t[x][None, :], t])


def bck_property_scan(table) -> tuple:
    return (*commutative_implicative_scan(table), positive_implicative_scan(table))
