"""Hot numeric kernels with two interchangeable backends.

Every kernel exists twice: a numba @njit version and a pure-numpy version
producing bit-identical results.  The active backend is picked once at
import time from the BCKCODES_BACKEND environment variable ("numba" or
"numpy"); the default (unset or empty) is numba when importable, numpy
otherwise.  An explicit choice is never replaced by the other backend: an
unknown value, or "numba" without numba, leaves the module importable but
every kernel call raises UsageError, and the CLI refuses the command.

Kernel outputs encode first-witness scans as int64 arrays so both backends
can share one calling convention:

  * axiom scans return shape (k, 4) rows [found, w0, w1, w2], padded with -1
  * canonical_table returns the lexicographically minimal row-major
    serialization of the table over the supplied permutations.  The census
    groups its classes by a cheaper refinement canonical form (codegen) and
    calls this brute force once per class, as the key that orders them.
"""
from __future__ import annotations

import itertools
import os
from functools import lru_cache

import numpy as np

from .errors import UsageError

ENV_BACKEND = "BCKCODES_BACKEND"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return deco


def resolve_backend(choice: str | None = None) -> str:
    """Map an explicit/environment choice to the backend that will run.

    Raises UsageError for an unknown choice, or for "numba" when numba is
    not importable.
    """
    if choice is None:
        choice = os.environ.get(ENV_BACKEND, "")
    choice = choice.strip()
    name = choice.lower()
    if not name:
        return "numba" if HAVE_NUMBA else "numpy"
    if name not in ("numpy", "numba"):
        raise UsageError(f"{ENV_BACKEND}={choice} is not a backend (expected numpy or numba)")
    if name == "numba" and not HAVE_NUMBA:
        raise UsageError(f"{ENV_BACKEND}=numba requested but numba is not importable")
    return name


def _as_table(table) -> np.ndarray:
    return np.ascontiguousarray(table, dtype=np.int64)


# ---------------------------------------------------------------------------
# axiom scans, numpy backend
#
# Violation masks are built by broadcasting; argmax on the boolean mask picks
# the first True in C order, which is exactly the lexicographic scan order.
# ---------------------------------------------------------------------------

def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


def _pack(rows: list[tuple[int, ...] | None], width: int = 4) -> np.ndarray:
    out = np.full((len(rows), width), -1, dtype=np.int64)
    for k, w in enumerate(rows):
        if w is None:
            out[k, 0] = 0
        else:
            out[k, 0] = 1
            for p, v in enumerate(w):
                out[k, 1 + p] = v
    return out


def bck_axiom_scan_numpy(table, theta: int) -> np.ndarray:
    t = _as_table(table)
    n = t.shape[0]
    idx = np.arange(n)
    # 1: ((x*y)*(x*z))*(z*y) == theta
    p = t[t[:, :, None], t[:, None, :]]          # p[x,y,z] = t[t[x,y], t[x,z]]
    v1 = t[p, t.T[None, :, :]] != theta          # ...applied to t[z,y]
    # 2: (x*(x*y))*y == theta
    inner = t[idx[:, None], t]                   # inner[x,y] = t[x, t[x,y]]
    v2 = t[inner, idx[None, :]] != theta
    # 3: x*x == theta
    v3 = t.diagonal() != theta
    # 4: x*y == theta and y*x == theta imply x == y
    v4 = (t == theta) & (t.T == theta)
    np.fill_diagonal(v4, False)
    # 5: theta*x == theta
    v5 = t[theta] != theta
    return _pack([_first(v1), _first(v2), _first(v3), _first(v4), _first(v5)])


def hilbert_axiom_scan_numpy(table, theta: int) -> np.ndarray:
    d = _as_table(table)
    n = d.shape[0]
    idx = np.arange(n)
    # 1: x*(y*x) == theta
    v1 = d[idx[:, None], d.T] != theta
    # 2: (x*(y*z)) * ((x*y)*(x*z)) == theta
    a = d[idx[:, None, None], d[None, :, :]]     # a[x,y,z] = d[x, d[y,z]]
    b = d[d[:, :, None], d[:, None, :]]          # b[x,y,z] = d[d[x,y], d[x,z]]
    v2 = d[a, b] != theta
    # 3: antisymmetry through theta
    v3 = (d == theta) & (d.T == theta)
    np.fill_diagonal(v3, False)
    return _pack([_first(v1), _first(v2), _first(v3)])


def bck_property_scan_numpy(table, theta: int) -> np.ndarray:
    t = _as_table(table)
    n = t.shape[0]
    idx = np.arange(n)
    # commutative: x*(x*y) == y*(y*x)
    left = t[idx[:, None], t]
    v1 = left != left.T
    # implicative: x*(y*x) == x
    v2 = t[idx[:, None], t.T] != idx[:, None]
    # positive implicative: (x*y)*z == (x*z)*(y*z)
    g = t[t[:, :, None], idx[None, None, :]]     # g[x,y,z] = t[t[x,y], z]
    h = t[t[:, None, :], t[None, :, :]]          # h[x,y,z] = t[t[x,z], t[y,z]]
    v3 = g != h
    return _pack([_first(v1), _first(v2), _first(v3)])


def canonical_table_numpy(table, perms, invs) -> np.ndarray:
    t = _as_table(table)
    n = t.shape[0]
    k = perms.shape[0]
    sub = t[invs[:, :, None], invs[:, None, :]]
    mapped = perms[np.arange(k)[:, None, None], sub]
    flat = mapped.reshape(k, n * n)
    order = np.lexsort(flat.T[::-1])
    return np.ascontiguousarray(flat[order[0]])


# ---------------------------------------------------------------------------
# axiom scans, numba backend
# ---------------------------------------------------------------------------

@njit(cache=True)
def _bck_axiom_scan_jit(t, theta):  # pragma: no cover - exercised via dispatch
    n = t.shape[0]
    out = np.full((5, 4), -1, np.int64)
    for a in range(5):
        out[a, 0] = 0
    done = False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[t[t[x, y], t[x, z]], t[z, y]] != theta:
                    out[0, 0] = 1
                    out[0, 1] = x
                    out[0, 2] = y
                    out[0, 3] = z
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for x in range(n):
        for y in range(n):
            if t[t[x, t[x, y]], y] != theta:
                out[1, 0] = 1
                out[1, 1] = x
                out[1, 2] = y
                done = True
                break
        if done:
            break
    for x in range(n):
        if t[x, x] != theta:
            out[2, 0] = 1
            out[2, 1] = x
            break
    done = False
    for x in range(n):
        for y in range(n):
            if x != y and t[x, y] == theta and t[y, x] == theta:
                out[3, 0] = 1
                out[3, 1] = x
                out[3, 2] = y
                done = True
                break
        if done:
            break
    for x in range(n):
        if t[theta, x] != theta:
            out[4, 0] = 1
            out[4, 1] = x
            break
    return out


@njit(cache=True)
def _hilbert_axiom_scan_jit(d, theta):  # pragma: no cover
    n = d.shape[0]
    out = np.full((3, 4), -1, np.int64)
    for a in range(3):
        out[a, 0] = 0
    done = False
    for x in range(n):
        for y in range(n):
            if d[x, d[y, x]] != theta:
                out[0, 0] = 1
                out[0, 1] = x
                out[0, 2] = y
                done = True
                break
        if done:
            break
    done = False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if d[d[x, d[y, z]], d[d[x, y], d[x, z]]] != theta:
                    out[1, 0] = 1
                    out[1, 1] = x
                    out[1, 2] = y
                    out[1, 3] = z
                    done = True
                    break
            if done:
                break
        if done:
            break
    done = False
    for x in range(n):
        for y in range(n):
            if x != y and d[x, y] == theta and d[y, x] == theta:
                out[2, 0] = 1
                out[2, 1] = x
                out[2, 2] = y
                done = True
                break
        if done:
            break
    return out


@njit(cache=True)
def _bck_property_scan_jit(t, theta):  # pragma: no cover
    n = t.shape[0]
    out = np.full((3, 4), -1, np.int64)
    for a in range(3):
        out[a, 0] = 0
    done = False
    for x in range(n):
        for y in range(n):
            if t[x, t[x, y]] != t[y, t[y, x]]:
                out[0, 0] = 1
                out[0, 1] = x
                out[0, 2] = y
                done = True
                break
        if done:
            break
    done = False
    for x in range(n):
        for y in range(n):
            if t[x, t[y, x]] != x:
                out[1, 0] = 1
                out[1, 1] = x
                out[1, 2] = y
                done = True
                break
        if done:
            break
    done = False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[t[x, y], z] != t[t[x, z], t[y, z]]:
                    out[2, 0] = 1
                    out[2, 1] = x
                    out[2, 2] = y
                    out[2, 3] = z
                    done = True
                    break
            if done:
                break
        if done:
            break
    return out


@njit(cache=True)
def _canonical_table_jit(t, perms, invs):  # pragma: no cover
    k = perms.shape[0]
    n = perms.shape[1]
    m = n * n
    best = np.empty(m, np.int64)
    pos = 0
    for i in range(n):
        for j in range(n):
            best[pos] = perms[0, t[invs[0, i], invs[0, j]]]
            pos += 1
    cand = np.empty(m, np.int64)
    for p in range(1, k):
        pos = 0
        smaller = False
        abort = False
        for i in range(n):
            io = invs[p, i]
            for j in range(n):
                v = perms[p, t[io, invs[p, j]]]
                cand[pos] = v
                if not smaller:
                    if v > best[pos]:
                        abort = True
                        break
                    if v < best[pos]:
                        smaller = True
                pos += 1
            if abort:
                break
        if smaller and not abort:
            for q in range(m):
                best[q] = cand[q]
    return best


def bck_axiom_scan_numba(table, theta: int) -> np.ndarray:
    return _bck_axiom_scan_jit(_as_table(table), theta)


def hilbert_axiom_scan_numba(table, theta: int) -> np.ndarray:
    return _hilbert_axiom_scan_jit(_as_table(table), theta)


def bck_property_scan_numba(table, theta: int) -> np.ndarray:
    return _bck_property_scan_jit(_as_table(table), theta)


def canonical_table_numba(table, perms, invs) -> np.ndarray:
    return _canonical_table_jit(_as_table(table), perms, invs)


IMPLEMENTATIONS = {
    "numpy": {
        "bck_axiom_scan": bck_axiom_scan_numpy,
        "hilbert_axiom_scan": hilbert_axiom_scan_numpy,
        "bck_property_scan": bck_property_scan_numpy,
        "canonical_table": canonical_table_numpy,
    },
}
if HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = {
        "bck_axiom_scan": bck_axiom_scan_numba,
        "hilbert_axiom_scan": hilbert_axiom_scan_numba,
        "bck_property_scan": bck_property_scan_numba,
        "canonical_table": canonical_table_numba,
    }


def _refuse(message: str):
    def kernel(*args, **kwargs):
        raise UsageError(message)

    return kernel


try:
    BACKEND = resolve_backend()
    _active = IMPLEMENTATIONS[BACKEND]
except UsageError as exc:
    BACKEND = None
    _active = dict.fromkeys(IMPLEMENTATIONS["numpy"], _refuse(str(exc)))
bck_axiom_scan = _active["bck_axiom_scan"]
hilbert_axiom_scan = _active["hilbert_axiom_scan"]
bck_property_scan = _active["bck_property_scan"]
canonical_table = _active["canonical_table"]


@lru_cache(maxsize=4)
def theta_fixing_perms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of 0..n-1 fixing 0, with their inverses, in
    lexicographic order (so index 0 is the identity)."""
    perms = np.array(
        [(0,) + rest for rest in itertools.permutations(range(1, n))],
        dtype=np.int64,
    ).reshape(-1, n)
    invs = np.argsort(perms, axis=1).astype(np.int64)
    return perms, invs

