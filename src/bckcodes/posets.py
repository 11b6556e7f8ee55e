"""The codeword domination order, lexicographic sorting, the
order-to-table constructor, and the checks and covers of an order given as
a boolean matrix."""
from __future__ import annotations

import numpy as np

from .model import BlockCode


def lex_sort_desc_with_perm(c: BlockCode) -> tuple[np.ndarray, tuple[int, ...]]:
    """The code matrix with its rows in descending bitstring order ('1' >
    '0', left to right), plus the permutation: entry k is the source index
    of the k-th sorted row.  Rows are distinct, so the order has no ties."""
    order = np.lexsort(c.matrix.T[::-1])[::-1]
    return c.matrix[order], tuple(order.tolist())


def domination_leq(rows) -> np.ndarray:
    """leq[..., i, j] says row i is dominated-below row j: row j's support
    is contained in row i's.  Leading axes of `rows` are a batch; the
    rows are bit-packed into bytes for `_packed_leq`."""
    return _packed_leq(np.packbits(np.asarray(rows, dtype=np.uint8), axis=-1))


def _packed_leq(words: np.ndarray) -> np.ndarray:
    """`domination_leq` of rows packed into integer words along the last
    axis (bytes for a code, one int64 per census row), compared one word
    column at a time: one boolean and one word per pair of rows."""
    leq = np.ones(words.shape[:-1] + words.shape[-2:-1], dtype=bool)
    for k in range(words.shape[-1]):
        col = words[..., k]
        leq &= (col[..., None, :] & ~col[..., :, None]) == 0
    return leq


def star_from_order(leq: np.ndarray) -> np.ndarray:
    """The star table of an order with least element theta = 0: x*y is
    theta when x <= y and x otherwise."""
    return np.where(leq, 0, np.arange(len(leq))[:, None])


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product: entry (i, j) says a[i, k] and b[k, j] for
    some k.  It runs as a float32 (BLAS) matmul, whose 0/1 sums are exact
    up to 2^24 terms."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def is_order(leq: np.ndarray) -> bool:
    """Whether the square boolean relation `leq` is a partial order:
    reflexive, with its diagonal the only cells that `leq & leq.T` holds
    (antisymmetric), and equal to its own square (transitive)."""
    return bool(
        leq.diagonal().all()
        and np.count_nonzero(leq & leq.T) == len(leq)
        and np.array_equal(bool_product(leq, leq), leq)
    )


def hasse_covers(leq: np.ndarray) -> list[tuple[int, int]]:
    """Covering pairs (x, y) of the partial order `leq` (leq[x, y] says
    x <= y): x strictly below y with nothing in between, ordered by (lower,
    upper) index."""
    strict = leq & ~np.eye(len(leq), dtype=bool)
    covers = strict & ~bool_product(strict, strict)
    return [(int(i), int(j)) for i, j in np.argwhere(covers)]
