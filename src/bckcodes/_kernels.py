"""Axiom and property scans, in numpy.

Each scan returns one witness per checked law, in law order: the first
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


def bck_axiom_scan(table, theta: int) -> tuple:
    t = _as_table(table)
    n = t.shape[0]
    idx = np.arange(n)
    tt = np.ascontiguousarray(t.T)
    # 1: ((x*y)*(x*z))*(z*y) == theta
    w1 = _first_over_x(n, lambda x: t[t[t[x, :, None], t[x, None, :]], tt] != theta)
    # 2: (x*(x*y))*y == theta
    inner = t[idx[:, None], t]                   # inner[x,y] = t[x, t[x,y]]
    v2 = t[inner, idx[None, :]] != theta
    # 3: x*x == theta
    v3 = t.diagonal() != theta
    # 4: x*y == theta and y*x == theta imply x == y
    v4 = (t == theta) & (tt == theta)
    np.fill_diagonal(v4, False)
    # 5: theta*x == theta
    v5 = t[theta] != theta
    return w1, _first(v2), _first(v3), _first(v4), _first(v5)


def hilbert_axiom_scan(table, theta: int) -> tuple:
    d = _as_table(table)
    n = d.shape[0]
    idx = np.arange(n)
    # 1: x*(y*x) == theta
    v1 = d[idx[:, None], d.T] != theta
    # 2: (x*(y*z)) * ((x*y)*(x*z)) == theta
    w2 = _first_over_x(n, lambda x: d[d[x][d], d[d[x, :, None], d[x, None, :]]] != theta)
    # 3: antisymmetry through theta
    v3 = (d == theta) & (d.T == theta)
    np.fill_diagonal(v3, False)
    return _first(v1), w2, _first(v3)


def bck_property_scan(table, theta: int) -> tuple:
    t = _as_table(table)
    n = t.shape[0]
    idx = np.arange(n)
    # commutative: x*(x*y) == y*(y*x)
    left = t[idx[:, None], t]
    v1 = left != left.T
    # implicative: x*(y*x) == x
    v2 = t[idx[:, None], t.T] != idx[:, None]
    # positive implicative: (x*y)*z == (x*z)*(y*z)
    w3 = _first_over_x(n, lambda x: t[t[x, :, None], idx] != t[t[x][None, :], t])
    return _first(v1), _first(v2), w3
