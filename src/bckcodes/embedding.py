"""Extending a code matrix to an upper-triangular square matrix and building
the containing algebra; the direct code-as-carrier pathway; the tail-set
filter check."""
from __future__ import annotations

import string

import numpy as np

from .algebra import dualize
from .errors import UsageError
from .filters import _closure_witness
from .model import STAR, BlockCode, Embedding, OpTable
from .posets import domination_leq, lex_sort_desc_with_perm, star_from_order


def carrier_rows(c: BlockCode) -> tuple[np.ndarray, tuple[int, ...]]:
    """The direct-mode carrier: the code's rows lex-sorted descending, with
    the all-ones row adjoined first when absent; also the sort permutation."""
    words, perm = lex_sort_desc_with_perm(c)
    if words[0].all():
        return words, perm
    return np.vstack([np.ones((1, words.shape[1]), dtype=np.uint8), words]), perm


def _extend(words: np.ndarray) -> np.ndarray:
    n, m = words.shape
    block = np.zeros((n + m, n + m), dtype=np.uint8)
    block[:n, :n] = np.eye(n, dtype=np.uint8)
    block[:n, n:] = words
    block[n:, n:] = np.eye(m, dtype=np.uint8)
    if not block[0].all():
        full = np.zeros((n + m + 1, n + m + 1), dtype=np.uint8)
        full[0, :] = 1
        full[1:, 1:] = block
        block = full
    block.setflags(write=False)
    return block


def extend_matrix(c: BlockCode) -> np.ndarray:
    """Square upper-triangular extension of a code matrix, as a read-only
    uint8 array.

    The code is lex-sorted descending, an identity prefix is attached on
    the left so sorted row i carries unit vector e_i, identity tail rows are
    appended, and an all-ones row plus matching first column are prepended
    when the first row is not already all ones.  The result has n + m rows,
    or n + m + 1 when the all-ones row was prepended.
    """
    return _extend(lex_sort_desc_with_perm(c)[0])


def _star_algebra(rows: np.ndarray, labels: tuple[str, ...]) -> OpTable:
    """The algebra on distinct rows whose first row is all ones: x*y is
    theta = 0 when row x is dominated-below row y and x otherwise."""
    return OpTable(table=star_from_order(domination_leq(rows)), kind=STAR, labels=labels)


def _embedding_labels(size: int) -> tuple[str, ...]:
    return ("θ",) + tuple(f"w{i + 1}" for i in range(1, size))


def _direct_labels(size: int) -> tuple[str, ...]:
    if size - 1 <= len(string.ascii_lowercase):
        return ("θ",) + tuple(string.ascii_lowercase[: size - 1])
    return ("θ",) + tuple(f"x{i + 1}" for i in range(1, size))


def embed_code(c: BlockCode) -> Embedding:
    """Compose matrix extension, domination order and the order-to-table
    constructor.  The resulting star table always satisfies the BCK axioms
    plus positive implicativity, and its dual the Hilbert axioms."""
    words, perm = lex_sort_desc_with_perm(c)
    n, m = words.shape
    rows = _extend(words)
    size = len(rows)
    offset = size - n - m
    origins = ("theta",) * offset + tuple(f"code_row:{i}" for i in perm)
    origins += tuple(f"tail_row:{k}" for k in range(m))
    return Embedding(
        source=c,
        matrix=rows,
        algebra=_star_algebra(rows, _embedding_labels(size)),
        origins=origins,
        code_row_elements=tuple(range(offset, offset + n)),
        tail_elements=tuple(range(offset + n, size)),
        sort_permutation=perm,
    )


def direct_algebra(c: BlockCode) -> Embedding:
    """Use the codewords themselves as the carrier: sort, adjoin the
    all-ones word as theta when missing, and read the table off the
    domination order.  No tail elements."""
    rows, perm = carrier_rows(c)
    size = len(rows)
    offset = size - c.size
    return Embedding(
        source=c,
        matrix=None,
        algebra=_star_algebra(rows, _direct_labels(size)),
        origins=("theta",) + tuple(f"code_row:{i}" for i in perm[1 - offset :]),
        code_row_elements=tuple(range(offset, size)),
        tail_elements=(),
        sort_permutation=perm,
    )


def tail_set_check(e: Embedding) -> tuple[frozenset[int], bool, tuple[int, int] | None]:
    """Check (rather than assert) whether theta plus the tail elements form
    a filter in the dual algebra; returns the set, the verdict and the first
    violating pair when the verdict is false.  The dual of an embedded
    table is a Hilbert algebra by construction, so it is not re-verified."""
    if not e.tail_elements:
        raise UsageError("embedding has no tail elements (direct-mode input)")
    members = frozenset({0, *e.tail_elements})
    ok, witness = _closure_witness(dualize(e.algebra), members)
    return members, ok, witness
