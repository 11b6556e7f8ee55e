"""The codeword domination order, lexicographic sorting, poset construction
and the order-to-BCK table constructor."""
from __future__ import annotations

import numpy as np

from .errors import UsageError
from .model import STAR, BlockCode, Codeword, Comparison, OpTable, Poset


def compare_codewords(v: Codeword, w: Codeword) -> Comparison:
    """Domination comparison: v is below w exactly when every bit of w is
    covered by the corresponding bit of v (the all-ones word is least)."""
    if v.length != w.length:
        raise UsageError(f"cannot compare codewords of lengths {v.length} and {w.length}")
    v_le_w = all(b <= a for a, b in zip(v.bits, w.bits))
    w_le_v = all(a <= b for a, b in zip(v.bits, w.bits))
    if v_le_w and w_le_v:
        return Comparison.EQUAL
    if v_le_w:
        return Comparison.LESS_EQ
    if w_le_v:
        return Comparison.GREATER_EQ
    return Comparison.INCOMPARABLE


def lex_sort_desc(c: BlockCode) -> BlockCode:
    """Words in descending bitstring order ('1' > '0', left to right)."""
    return lex_sort_desc_with_perm(c)[0]


def lex_sort_desc_with_perm(c: BlockCode) -> tuple[BlockCode, tuple[int, ...]]:
    """Sorted code plus the permutation: entry k is the source index of the
    k-th sorted word."""
    order = sorted(range(c.size), key=lambda i: c.words[i].bits, reverse=True)
    return BlockCode(tuple(c.words[i] for i in order)), tuple(order)


def domination_leq(rows) -> np.ndarray:
    """leq[..., i, j] says row i is dominated-below row j: row j's support
    is contained in row i's.  Leading axes of `rows` are a batch.

    Rows are bit-packed along the word axis and compared one packed byte
    column at a time, so memory stays at one boolean per pair of rows.
    """
    packed = np.packbits(np.asarray(rows, dtype=np.uint8), axis=-1)
    leq = np.ones(packed.shape[:-1] + packed.shape[-2:-1], dtype=bool)
    for k in range(packed.shape[-1]):
        col = packed[..., k]
        leq &= (col[..., None, :] & ~col[..., :, None]) == 0
    return leq


def star_from_order(leq: np.ndarray, theta: int = 0) -> np.ndarray:
    """The star table of an order with least element theta: x*y is theta
    when x <= y and x otherwise."""
    return np.where(leq, theta, np.arange(len(leq))[:, None])


def code_poset(c: BlockCode, adjoin_theta: bool = True) -> Poset:
    """The domination order on a code's words.

    The all-ones word is the least element; it is moved to the front when
    present, adjoined at the front when absent and `adjoin_theta` is set,
    and a missing least element is an error otherwise.  Other words keep
    their input order.  Elements are labeled with their bit strings.
    """
    ones = Codeword.ones(c.word_length)
    words = list(c.words)
    if ones in words:
        words.remove(ones)
        words.insert(0, ones)
    elif adjoin_theta:
        words.insert(0, ones)
    else:
        raise UsageError("code has no least element (all-ones word absent); pass adjoin_theta=True")
    rows = np.array([w.bits for w in words], dtype=np.uint8)
    return Poset(
        leq=domination_leq(rows),
        least=0,
        labels=tuple(str(w) for w in words),
    )


def poset_to_bck(p: Poset) -> OpTable:
    """Star table from a poset with least element: x*y is the least element
    when x <= y and x otherwise."""
    if p.least is None:
        raise UsageError("poset has no least element; cannot build a star table")
    table = star_from_order(p.leq, p.least)
    return OpTable(table=table, kind=STAR, theta=p.least, labels=p.labels)


def hasse_covers(p: Poset) -> list[tuple[int, int]]:
    """Covering pairs (x, y): x strictly below y with nothing in between,
    ordered by (lower, upper) index."""
    strict = p.leq & ~np.eye(p.n, dtype=bool)
    inbetween = (strict.astype(np.int64) @ strict.astype(np.int64)) > 0
    covers = strict & ~inbetween
    return [(int(i), int(j)) for i, j in np.argwhere(covers)]
