"""Filters (deductive systems) of Hilbert-style dot tables: membership,
generation, enumeration and the semisimple/local classification.

Member sets are manipulated as int bitmasks internally.  Generation,
enumeration and maximality rest on one closure step, the deduction theorem
for Hilbert algebras (Diego, *Sur les algèbres de Hilbert*, 1966): the
filter generated by a filter D and an element a is {x : a.x in D}, one
pass over row a.

Every entry point passes its table through the validity gate,
`algebra.require_axioms`.  On a dot table whose transpose is order-induced,
the closed form of `verify_axioms`, the gate returns the order, and the
filters are read off it.
Lemma: let x <= y iff y.x = 0 be a partial order with 0 least, and let
x.y = 0 if y <= x, else y.  Then a set is a filter iff it is a nonempty
down-set.
  * A filter D holds 0, and for y <= x with x in D it holds x.y = 0, so
    it holds y: D is a down-set.  A nonempty down-set D holds 0, the least
    element.  If x and x.y are in D, then either y <= x, or x.y = y; in
    both cases y is in D, so D is a filter.
  * The growth step is {x : a.x in D} = D | down(a), since a.x = 0 is in
    D when x <= a, and a.x = x otherwise.
  * For n > 1 the maximal proper filters are P - {m}, one for each maximal
    m: a proper down-set misses some element, hence some maximal element
    above it.  The radical is P minus its maximal elements; the algebra is
    semisimple iff every element but 0 is maximal, and local iff exactly
    one is.
  * A down-set holding 0 is fixed by its maximal elements in P - {0}, so
    the filters are counted by the antichains of P - {0}.
Every other table runs the breadth-first growth on its rows.  Listing and
counting are exponential, so past FILTER_STATE_BUDGET filters listed or sets
memoised both raise a UsageError that names the carrier size.
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import dualize, require_axioms
from .errors import UsageError
from .model import STAR, ClassificationReport, OpTable

# filters listed or antichain sets memoised (5-7 s of counting on a shared 2-vCPU VM)
FILTER_STATE_BUDGET = 1 << 18


def _over_budget(work: str, n: int, result: str) -> UsageError:
    """The error once `work` on an n-element algebra passes the budget."""
    states = f"{work} the filters of a {n}-element algebra needs more than {FILTER_STATE_BUDGET} states"
    return UsageError(f"{states}; the {result} is not available at this size")


def _pytable(h: OpTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in h.table)


def _row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a bitmask of its true columns."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _grow(row: tuple[int, ...], mask: int) -> int:
    """The filter generated by the filter `mask` and the element whose row
    of the dot table is `row`: every x with row[x] in mask."""
    grown = 0
    for x, v in enumerate(row):
        if mask >> v & 1:
            grown |= 1 << x
    return grown


def _growth(h: OpTable, leq: np.ndarray | None):
    """The closure step on a Hilbert table, grow(a, mask): the filter
    generated by the filter `mask` and the element a.  On a table induced
    by the order `leq` it is one OR with the down-set of a, else (`leq` is
    None) a pass over row a."""
    if leq is not None:
        down = _row_masks(leq.T)  # row a: {x <= a}
        return lambda a, mask: mask | down[a]
    rows = _pytable(h)
    return lambda a, mask: _grow(rows[a], mask)


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
    grow = _growth(h, require_axioms(h, "hilbert"))
    members = _check_members(h, s)
    if 0 not in members:
        return False, None
    mask = sum(1 << i for i in members)
    for x in sorted(members):
        extra = grow(x, mask) & ~mask
        if extra:
            return False, (x, (extra & -extra).bit_length() - 1)
    return True, None


def generated_filter(h: OpTable, seed) -> frozenset[int]:
    """Least filter containing the seed: {theta} grown by one seed element
    at a time."""
    grow = _growth(h, require_axioms(h, "hilbert"))
    mask = 1
    for a in sorted(_check_members(h, seed)):
        mask = grow(a, mask)
    return _mask_to_set(mask, h.n)


def _enumerate_masks(n: int, grow) -> tuple[list[int], list[int]]:
    """Every filter and the maximal proper ones, each in (cardinality,
    bitmask) order.

    Breadth-first from {theta}, a filter because theta.y = y, growing each
    proper filter by each element outside it.  Every filter is reached,
    since it is the growth of a smaller filter inside it by one of its
    elements; a proper filter is maximal exactly when every such growth is
    the carrier.  `grow` is the `_growth` of the n-element table.  Past
    FILTER_STATE_BUDGET filters it raises a UsageError.
    """
    carrier = (1 << n) - 1
    found = {1}
    maximal = []
    frontier = [1]
    while frontier:
        nxt = []
        for mask in frontier:
            if mask == carrier:
                continue
            is_maximal = True
            for a in range(n):
                if mask >> a & 1:
                    continue
                grown = grow(a, mask)
                if grown != carrier:
                    is_maximal = False
                    if grown not in found:
                        found.add(grown)
                        nxt.append(grown)
                        if len(found) > FILTER_STATE_BUDGET:
                            raise _over_budget("listing", n, "list")
            if is_maximal:
                maximal.append(mask)
        frontier = nxt
    found.add(carrier)

    def order(m: int) -> tuple[int, int]:
        return m.bit_count(), m

    return sorted(found, key=order), sorted(maximal, key=order)


def _order_maximal(leq: np.ndarray) -> list[int]:
    """The maximal proper filters of the table induced by the order `leq`:
    the carrier minus one maximal element m != 0 each, in (cardinality,
    bitmask) order, which is by decreasing m.  Row m of `leq` is the up-set
    of m."""
    above = leq.sum(axis=1)
    carrier = (1 << len(leq)) - 1
    return [carrier ^ 1 << int(m) for m in np.flatnonzero(above[1:] == 1)[::-1] + 1]


def _components(comparable: list[int], s: int) -> list[int]:
    """The connected components of the comparability graph on s."""
    parts = []
    while s:
        part = frontier = s & -s
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reached = comparable[low.bit_length() - 1] & s & ~part
            part |= reached
            frontier |= reached
        parts.append(part)
        s &= ~part
    return parts


def _branches(comparable: list[int], c: int) -> tuple[list[list[int]], int]:
    """#A(c) for a connected c as `extra` plus a sum over branches of the
    product of #A over each branch's components.  The antichains through an
    element comparable to all of c are singletons, so with U the set of
    those, #A(c) = #A(c - U) + |U|.  Otherwise branch on the element v with
    most comparable elements N[v] in c: #A(c) = #A(c - v) + #A(c - N[v])."""
    members = list(_bits(c))
    degree = [(comparable[v] & c).bit_count() for v in members]
    universal = sum(1 << v for v, d in zip(members, degree) if d == len(members))
    if universal:
        return [_components(comparable, c & ~universal)], universal.bit_count()
    v = members[degree.index(max(degree))]
    return [_components(comparable, c & ~(1 << v)), _components(comparable, c & ~comparable[v])], 0


def _antichain_count(comparable: list[int], s: int) -> int:
    """The number of antichains of the elements in s, where comparable[v]
    holds v and every element comparable to it.  Components multiply; each
    connected set is split by `_branches`, memoised, and evaluated from an
    explicit stack, so depth does not grow with the order.  Past
    FILTER_STATE_BUDGET memoised sets it raises a UsageError."""
    memo: dict[int, int] = {}
    plans: dict[int, tuple[list[list[int]], int]] = {}
    roots = _components(comparable, s)
    stack = list(roots)
    while stack:
        c = stack[-1]
        if c in memo:
            stack.pop()
            continue
        if c not in plans:
            plans[c] = _branches(comparable, c)
            missing = [d for branch in plans[c][0] for d in branch if d not in memo]
            if missing:
                stack += missing
                continue
        branches, extra = plans.pop(c)
        memo[c] = extra + sum(math.prod(memo[d] for d in branch) for branch in branches)
        stack.pop()
        if len(memo) > FILTER_STATE_BUDGET:
            raise _over_budget("counting", len(comparable), "count")
    return math.prod(memo[c] for c in roots)


def all_filters(h: OpTable) -> list[frozenset[int]]:
    """Every filter, by breadth-first growth from {theta}.

    Output order: cardinality, then bitmask value.
    """
    grow = _growth(h, require_axioms(h, "hilbert"))
    return [_mask_to_set(m, h.n) for m in _enumerate_masks(h.n, grow)[0]]


def maximal_filters(h: OpTable) -> list[frozenset[int]]:
    """Proper filters maximal under inclusion among proper filters; empty
    for the one-element algebra.  Read off the order on an induced table."""
    leq = require_axioms(h, "hilbert")
    if leq is not None:
        masks = _order_maximal(leq)
    else:
        masks = _enumerate_masks(h.n, _growth(h, None))[1]
    return [_mask_to_set(m, h.n) for m in masks]


def classify(h: OpTable) -> ClassificationReport:
    """Semisimple/local verdicts per the maximal-filter structure.

    Star input is dualized first; the dual must then pass the Hilbert
    axioms.  The one-element algebra is reported degenerate with both
    verdicts not applicable.  On an induced table the maximal filters come
    from the order and the count from the antichains of P - {theta}.
    """
    if h.kind == STAR:
        h = dualize(h)
    leq = require_axioms(h, "hilbert")
    if leq is not None:
        maximal = _order_maximal(leq)
        count = _antichain_count(_row_masks(leq | leq.T), (1 << h.n) - 2)
    else:
        masks, maximal = _enumerate_masks(h.n, _growth(h, None))
        count = len(masks)
    if h.n == 1:
        return ClassificationReport(
            all_filter_count=count,
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
        all_filter_count=count,
        maximal_filters=tuple(_mask_to_set(m, h.n) for m in maximal),
        radical=radical,
        is_semisimple=radical == frozenset({0}),
        is_local=len(maximal) == 1,
        degenerate=False,
    )
