"""Domain types: operation tables, posets, block codes, reports.

All values are immutable after construction and validate their own
invariants, so they can be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

STAR = "star"
DOT = "dot"


def _frozen_array(values, dtype):
    """A read-only C-contiguous copy: the caller's array is neither frozen
    nor aliased."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class OpTable:
    """An n-by-n operation table over element indices 0..n-1.

    `kind` is "star" for the order-style operation (x below y gives the
    distinguished element) and "dot" for its transpose, the implication-style
    operation.  The distinguished element theta is always element 0:
    `parse_algebra_file` renumbers a file's `theta` header to 0, and both
    builders put the all-ones row first.
    """

    table: np.ndarray
    kind: str
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _frozen_array(self.table, np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise UsageError(f"operation table must be square and nonempty, got shape {arr.shape}")
        n = arr.shape[0]
        if self.kind not in (STAR, DOT):
            raise UsageError(f"unknown table kind {self.kind!r}")
        if arr.min() < 0 or arr.max() >= n:
            bad = int(np.argmax((arr < 0) | (arr >= n)))
            raise UsageError(f"table entry {arr.flat[bad]} at cell ({bad // n}, {bad % n}) is out of range [0, {n})")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise UsageError(f"expected {n} labels, got {len(labels)}")
            if any(not s for s in labels) or len(set(labels)) != n:
                raise UsageError("labels must be distinct non-empty strings")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", arr)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __eq__(self, other):
        if not isinstance(other, OpTable):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.labels == other.labels
            and np.array_equal(self.table, other.table)
        )


def row_strings(rows) -> tuple[str, ...]:
    """The rows of a 0/1 matrix as bit strings: the digits as ASCII bytes,
    each row viewed as one fixed-width byte string and decoded."""
    bits = np.asarray(rows, dtype=np.uint8)
    if bits.shape[-1] == 0:
        return ("",) * len(bits)
    digits = np.ascontiguousarray(bits + ord("0"))
    return tuple(digits.view(f"S{bits.shape[-1]}").ravel().astype(str).tolist())


@dataclass(frozen=True, eq=False)
class BlockCode:
    """An ordered collection of distinct equal-length codewords: the rows of
    one read-only n-by-m uint8 0/1 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        try:
            values = np.asarray(self.matrix)
        except ValueError:
            raise UsageError("all codewords in a block code must share one length") from None
        if values.ndim == 0 or len(values) == 0:
            raise UsageError("a block code needs at least one codeword")
        if values.ndim != 2:
            raise UsageError(f"a block code is an n-by-m matrix, got shape {values.shape}")
        if values.shape[1] == 0:
            raise UsageError("codewords must have positive length")
        bad = (values != 0) & (values != 1)
        if bad.any():
            row = values[int(bad.any(axis=1).argmax())]
            raise UsageError(f"codeword bits must be 0 or 1, got {tuple(row.tolist())}")
        arr = _frozen_array(values, np.uint8)
        if len({row.tobytes() for row in arr}) != len(arr):
            raise UsageError("block code contains duplicate codewords")
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def from_strings(cls, texts) -> "BlockCode":
        rows = []
        for text in texts:
            if not text or any(c not in "01" for c in text):
                raise UsageError(f"codeword string must be non-empty over {{0,1}}, got {text!r}")
            rows.append([int(c) for c in text])
        return cls(rows)

    @property
    def word_length(self) -> int:
        return self.matrix.shape[1]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def strings(self) -> tuple[str, ...]:
        return row_strings(self.matrix)

    def __eq__(self, other):
        if not isinstance(other, BlockCode):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product: entry (i, j) says a[i, k] and b[k, j] for
    some k.  It runs as a float32 (BLAS) matmul, whose 0/1 sums are exact
    up to 2^24 terms."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def order_fault(leq: np.ndarray) -> str | None:
    """Why the square boolean relation `leq` is not a partial order, or None.

    Reflexivity is tested first, then antisymmetry, then transitivity; a
    named pair is the first offending one in row-major order.
    """
    if not leq.diagonal().all():
        return "relation is not reflexive"
    both = leq & leq.T
    np.fill_diagonal(both, False)
    if both.any():
        i, j = np.unravel_index(int(both.argmax()), both.shape)
        return f"relation is not antisymmetric: {i} <= {j} and {j} <= {i}"
    beyond = bool_product(leq, leq) & ~leq
    if beyond.any():
        i, j = np.unravel_index(int(beyond.argmax()), beyond.shape)
        return f"relation is not transitive at ({i}, {j})"
    return None


@dataclass(frozen=True, eq=False)
class Poset:
    """A finite partial order given as a boolean leq matrix."""

    leq: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _frozen_array(self.leq, bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise UsageError(f"leq must be a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        fault = order_fault(arr)
        if fault is not None:
            raise UsageError(fault)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n or any(not s for s in labels) or len(set(labels)) != n:
                raise UsageError("labels must be n distinct non-empty strings")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "leq", arr)

    @property
    def n(self) -> int:
        return self.leq.shape[0]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.leq, other.leq)


@dataclass(frozen=True)
class ClassificationReport:
    """Semisimple/local classification of a Hilbert-style algebra.

    `degenerate` marks the one-element algebra, which has no proper filter;
    its semisimple/local verdicts are reported as not applicable (False here,
    rendered as n/a by the CLI).
    """

    all_filter_count: int
    maximal_filters: tuple[frozenset[int], ...]
    radical: frozenset[int]
    is_semisimple: bool
    is_local: bool
    degenerate: bool


@dataclass(frozen=True, eq=False)
class Embedding:
    """A code together with the algebra built on top of it.

    `origins[i]` tags element i as "theta", "code_row:<source index>" or
    "tail_row:<tail index>".  `code_row_elements` lists the elements carrying
    the lex-sorted source codewords, in sorted order; `tail_elements` lists
    the identity tail rows.  `matrix` is the read-only extended 0/1 matrix
    whose rows are the elements.  In direct mode the codewords themselves
    are the carrier: no tail elements, and `matrix` is None.
    """

    source: BlockCode
    matrix: np.ndarray | None
    algebra: OpTable
    origins: tuple[str, ...]
    code_row_elements: tuple[int, ...]
    tail_elements: tuple[int, ...]
    sort_permutation: tuple[int, ...]

    def __post_init__(self):
        if len(self.origins) != self.algebra.n:
            raise UsageError("origins must tag every element")
        if len(self.code_row_elements) != self.source.size:
            raise UsageError("one carrier element per source codeword expected")
        object.__setattr__(self, "origins", tuple(self.origins))
        object.__setattr__(self, "code_row_elements", tuple(self.code_row_elements))
        object.__setattr__(self, "tail_elements", tuple(self.tail_elements))
        object.__setattr__(self, "sort_permutation", tuple(self.sort_permutation))


@dataclass(frozen=True)
class CutResult:
    """Raw cut rows plus the deduplicated code packaged from them.

    `collisions` records (kept_row, dropped_row) pairs whose cut words were
    identical; `code` keeps first occurrences in row order.
    """

    words: tuple[str, ...]
    code: BlockCode
    collisions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RoundtripReport:
    ok: bool
    expected: BlockCode
    recovered: tuple[str, ...]
    first_mismatch: int | None


@dataclass(frozen=True)
class CensusReport:
    """Isomorphism census over the all-ones-first upper-triangular matrix
    family, compared against the matrix-count bound: `total_matrices`,
    2^((n-1)(n-2)/2)."""

    n: int
    free_bits: int
    total_matrices: int
    evaluated: int
    mode: str
    class_count: int
    class_sizes: tuple[int, ...]
    class_representatives: tuple[tuple[str, ...], ...]
    bound_met: bool
