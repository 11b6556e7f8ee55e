"""Filters (deductive systems) of Hilbert-style dot tables: membership,
generation, enumeration and the semisimple/local classification.

Member sets are manipulated as int bitmasks internally.  Generation,
enumeration and maximality rest on one closure step, the deduction theorem
for Hilbert algebras (Diego, *Sur les algèbres de Hilbert*, 1966): the
filter generated by a filter D and an element a is {x : a.x in D}, one
pass over row a.
"""
from __future__ import annotations

import sys

from .algebra import dualize, require_axioms
from .errors import UsageError
from .model import DOT, STAR, ClassificationReport, OpTable

# enumeration is exponential in the worst case; warn past this carrier size
ENUMERATION_WARN_SIZE = 16


def _require_hilbert(h: OpTable) -> None:
    if h.kind != DOT:
        raise UsageError("filters are defined on dot tables; dualize the star table first")
    require_axioms(h, "hilbert")


def _pytable(h: OpTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in h.table)


def _grow(row: tuple[int, ...], mask: int) -> int:
    """The filter generated by the filter `mask` and the element whose row
    of the dot table is `row`: every x with row[x] in mask."""
    grown = 0
    for x, v in enumerate(row):
        if mask >> v & 1:
            grown |= 1 << x
    return grown


def _mask_to_set(mask: int, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if mask >> i & 1)


def _check_members(h: OpTable, s) -> frozenset[int]:
    members = frozenset(int(i) for i in s)
    for i in members:
        if not (0 <= i < h.n):
            raise UsageError(f"element {i} out of range [0, {h.n})")
    return members


def is_filter(h: OpTable, s) -> tuple[bool, tuple[int, int] | None]:
    """Whether s contains theta and is deductively closed; on failure the
    witness is the first violating pair in index order."""
    _require_hilbert(h)
    return _closure_witness(h, _check_members(h, s))


def _closure_witness(h: OpTable, members: frozenset[int]) -> tuple[bool, tuple[int, int] | None]:
    """`is_filter` on a table known to be a Hilbert algebra."""
    if 0 not in members:
        return False, None
    rows = _pytable(h)
    mask = sum(1 << i for i in members)
    for x in sorted(members):
        extra = _grow(rows[x], mask) & ~mask
        if extra:
            return False, (x, (extra & -extra).bit_length() - 1)
    return True, None


def generated_filter(h: OpTable, seed) -> frozenset[int]:
    """Least filter containing the seed: {theta} grown by one seed element
    at a time."""
    _require_hilbert(h)
    seed = _check_members(h, seed)
    rows = _pytable(h)
    mask = 1
    for a in sorted(seed):
        mask = _grow(rows[a], mask)
    return _mask_to_set(mask, h.n)


def _enumerate_masks(h: OpTable) -> tuple[list[int], list[int]]:
    """Every filter and the maximal proper ones, each in (cardinality,
    bitmask) order.

    Breadth-first from {theta}, a filter because theta.y = y, growing each
    proper filter by each element outside it.  Every filter is reached,
    since it is the growth of a smaller filter inside it by one of its
    elements; a proper filter is maximal exactly when every such growth is
    the carrier.  Warns on stderr past ENUMERATION_WARN_SIZE elements.
    """
    if h.n > ENUMERATION_WARN_SIZE:
        print(f"warning: enumerating filters of a {h.n}-element algebra may be slow", file=sys.stderr)
    rows = _pytable(h)
    carrier = (1 << h.n) - 1
    found = {1}
    maximal = []
    frontier = [1]
    while frontier:
        nxt = []
        for mask in frontier:
            if mask == carrier:
                continue
            is_maximal = True
            for a, row in enumerate(rows):
                if mask >> a & 1:
                    continue
                grown = _grow(row, mask)
                if grown != carrier:
                    is_maximal = False
                    if grown not in found:
                        found.add(grown)
                        nxt.append(grown)
            if is_maximal:
                maximal.append(mask)
        frontier = nxt
    found.add(carrier)

    def order(m: int) -> tuple[int, int]:
        return m.bit_count(), m

    return sorted(found, key=order), sorted(maximal, key=order)


def all_filters(h: OpTable) -> list[frozenset[int]]:
    """Every filter, by breadth-first growth from {theta}.

    Output order: cardinality, then bitmask value.
    """
    _require_hilbert(h)
    return [_mask_to_set(m, h.n) for m in _enumerate_masks(h)[0]]


def maximal_filters(h: OpTable) -> list[frozenset[int]]:
    """Proper filters maximal under inclusion among proper filters; empty
    for the one-element algebra."""
    _require_hilbert(h)
    return [_mask_to_set(m, h.n) for m in _enumerate_masks(h)[1]]


def classify(h: OpTable) -> ClassificationReport:
    """Semisimple/local verdicts per the maximal-filter structure.

    Star input is dualized first; the dual must then pass the Hilbert
    axioms.  The one-element algebra is reported degenerate with both
    verdicts not applicable.
    """
    if h.kind == STAR:
        h = dualize(h)
    _require_hilbert(h)
    masks, maximal = _enumerate_masks(h)
    if h.n == 1:
        return ClassificationReport(
            all_filter_count=len(masks),
            maximal_filters=(),
            radical=frozenset({0}),
            is_semisimple=False,
            is_local=False,
            degenerate=True,
        )
    radical_mask = (1 << h.n) - 1
    for m in maximal:
        radical_mask &= m
    radical = _mask_to_set(radical_mask, h.n)
    return ClassificationReport(
        all_filter_count=len(masks),
        maximal_filters=tuple(_mask_to_set(m, h.n) for m in maximal),
        radical=radical,
        is_semisimple=radical == frozenset({0}),
        is_local=len(maximal) == 1,
        degenerate=False,
    )
