"""Axiom verification, duality, order extraction and isomorphism testing
for finite operation tables."""
from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import UsageError
from .model import DOT, STAR, OpTable
from .posets import is_order

KINDS = ("bci", "bck", "hilbert")


def verify_axioms(t: OpTable, kind: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Check every axiom instance of the requested kind: the (axiom number,
    witness) pair of each failing axiom, empty when the table passes.

    Witnesses are the first violation per axiom in lexicographic (x, y, z)
    scan order, so results are reproducible.  The table orientation must
    match: bci/bck run on star tables, hilbert on dot tables.

    An order-induced table passes in closed form, without a scan.  Lemma:
    let the star table (for a dot table, its transpose) have every cell
    x*y in {0, x}, and let x <= y iff x*y = 0 be a partial order.  Row 0
    is all 0, so 0 is least, x*y = 0 if x <= y, else x, and x*0 = x for
    x != 0.
      * BCK 1, ((x*y)*(x*z))*(z*y) = 0.  If x <= y, it is
        (0*(x*z))*(z*y) = 0.  If x !<= y and x <= z, then z !<= y, so it
        is (x*0)*(z*y) = x*z = 0.  If x !<= y and x !<= z, it is
        (x*x)*(z*y) = 0*(z*y) = 0.
      * BCK 2, (x*(x*y))*y = 0.  If x <= y, x*(x*y) = x*0 is 0 or x, both
        below y.  Otherwise it is (x*x)*y = 0.  BCK 3-5 are reflexivity,
        antisymmetry and 0 least; BCI is BCK 1-4.
      * Hilbert, on the dot table x.y = y*x.  H1 reads (x*y)*x = 0, and
        x*y is 0 or x, both below x.  H2 reads
        ((z*x)*(y*x))*((z*y)*x) = 0.  If z <= x, it is 0*... = 0.  If
        z !<= x and z <= y, then y !<= x, so it is (z*y)*(0*x) = 0.  If
        z !<= x and z !<= y, it is (z*(y*x))*z, and z*(y*x) is 0 or z,
        both below z.  H3 is antisymmetry.
      * Positive implicativity, (x*y)*z = (x*z)*(y*z).  If x <= y, the left
        is 0; the right is 0*(y*z) when x <= z, else x*y = 0 because
        y !<= z.  If x !<= y and x <= z, both sides are 0.  If x !<= y and
        x !<= z, both sides are x, since y*z is 0 or y.
    Any other table is scanned, so every failing report is the scan's.
    """
    return _verify(t, kind)[1]


def _verify(t: OpTable, kind: str) -> tuple[np.ndarray | None, tuple[tuple[int, tuple[int, ...]], ...]]:
    """`verify_axioms` with the order it read: (the induced order, ()) for
    an order-induced table, else (None, the scan's violations)."""
    if kind not in KINDS:
        raise UsageError(f"unknown axiom kind {kind!r}, expected one of {KINDS}")
    if kind in ("bci", "bck") and t.kind != STAR:
        raise UsageError(f"{kind} axioms apply to star tables, got a {t.kind} table")
    if kind == "hilbert" and t.kind != DOT:
        raise UsageError(f"hilbert axioms apply to dot tables, got a {t.kind} table")
    leq = induced_order(t.table.T if kind == "hilbert" else t.table)
    if leq is not None:
        return leq, ()
    if kind == "hilbert":
        scan = _kernels.hilbert_axiom_scan(t.table)
    else:
        scan = _kernels.bck_axiom_scan(t.table)
        if kind == "bci":
            scan = scan[:4]
    return None, tuple((axiom, w) for axiom, w in enumerate(scan, start=1) if w is not None)


def induced_order(star: np.ndarray) -> np.ndarray | None:
    """The order of an order-induced star table, or None for any other.

    A star table is order-induced, the closed form of `verify_axioms`, when
    x*y = 0 if x <= y, else x, for a partial order with 0 least.  Its order
    is the boolean matrix `star == 0`: entry (x, y) says x <= y.  Row 0 of
    such a table is all 0, so 0 is least."""
    leq = star == 0
    if (leq | (star == np.arange(len(star))[:, None])).all() and is_order(leq):
        return leq
    return None


def require_axioms(t: OpTable, kind: str) -> np.ndarray | None:
    """The one validity gate: raise a UsageError naming the first failing
    axiom unless `t` passes the "bck" or "hilbert" axioms.  Returns the
    order of an order-induced table, which passes in closed form (of its
    star form: entry (x, y) says x <= y), or None for a table that passed
    by scan."""
    leq, violations = _verify(t, kind)
    if violations:
        axiom, witness = violations[0]
        name = "a BCK-algebra" if kind == "bck" else "a Hilbert algebra"
        raise UsageError(f"table is not {name} (axiom {axiom} fails at {witness})")
    return leq


PROPERTIES = ("commutative", "implicative", "positive_implicative")


def bck_properties(t: OpTable) -> dict[str, tuple[int, ...] | None]:
    """Commutativity, implicativity and positive implicativity of a valid
    BCK star table: property name -> first counterexample, or None when the
    property holds.  An order-induced table is positive implicative by the
    lemma in `verify_axioms`, so only its two n^2 checks run."""
    if require_axioms(t, "bck") is not None:
        return dict(zip(PROPERTIES, (*_kernels.commutative_implicative_scan(t.table), None)))
    return dict(zip(PROPERTIES, _kernels.bck_property_scan(t.table)))


def dualize(t: OpTable) -> OpTable:
    """Transpose the table and toggle its orientation; labels carry over.
    Involution."""
    return OpTable(table=t.table.T, kind=DOT if t.kind == STAR else STAR, labels=t.labels)


def bck_order(t: OpTable) -> np.ndarray:
    """The partial order x <= y iff x*y = theta of a BCK star table, as a
    boolean matrix (entry (x, y) says x <= y), with theta = 0 below every
    element.  Any other table raises the `require_axioms` error."""
    require_axioms(t, "bck")
    return t.table == 0


def refine_colors(a: np.ndarray, b: np.ndarray, colors=None) -> list[int]:
    """Joint iterated partition refinement of two n×n tables: the colors of
    a's elements, then of b's, with ids both tables share.

    Colors start from `colors`, or from (is theta, #y with x∘y=theta, #y
    with y∘x=theta).  Each round gives x the signature row (its color, then
    the sorted codes c(y)·k² + c(x∘y)·k + c(y∘x) over all y of its table, k
    colors in use).  Color ids number the distinct signature rows in sorted
    byte order, so an isomorphism that keeps the starting colors keeps every
    refined color.  Refinement stops when the number of colors stops
    growing, or once the tables' color multisets differ: a round only
    splits colors, so no later round could make them equal again.
    """
    t, n = np.array([a, b], dtype=np.int64), len(a)
    if colors is None:
        zero = t == 0
        sig = np.column_stack([np.arange(2 * n) % n == 0, zero.sum(axis=2).ravel(), zero.sum(axis=1).ravel()])
    else:
        sig = np.asarray(colors)[:, None]
    t[1] += n  # entries now index the joint color vector
    k = 0
    while True:
        keys = [row.tobytes() for row in sig]
        ids = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = np.array([ids[key] for key in keys], dtype=np.int64)
        if len(ids) == k or not np.array_equal(np.sort(colors[:n]), np.sort(colors[n:])):
            return colors.tolist()
        k = len(ids)
        codes = np.sort((colors.reshape(2, 1, n) * k + colors[t]) * k + colors[t.transpose(0, 2, 1)], axis=2)
        sig = np.column_stack([colors, codes.reshape(2 * n, n)])


def are_isomorphic(t1: OpTable, t2: OpTable) -> tuple[int, ...] | None:
    """The lexicographically first theta-fixing isomorphism (entry x is the
    image of element x), or None when there is none.

    At each joint refinement whose color multisets agree, the first
    color-keeping bijection (each color's elements matched in index order)
    is returned if it carries every cell.  Else the first element x of a
    color that is not one element per table is placed at each y of that
    color in the second table, in index order: x and y get a fresh color and
    both tables are refined again.  Refinement never prunes an isomorphism
    and placements run in lexicographic order, so the first bijection that
    carries every cell is the answer (McKay & Piperno, Practical graph
    isomorphism II, 2014).
    """
    if t1.kind != t2.kind:
        raise UsageError("cannot compare tables of different kinds")
    for t in (t1, t2):
        require_axioms(t, "hilbert" if t.kind == DOT else "bck")
    if t1.n != t2.n:
        return None
    a, b, n = t1.table, t2.table, t1.n
    levels = []  # (colors, element x, x's untried images) per placement
    c = np.array(refine_colors(a, b))
    while True:
        if np.array_equal(np.sort(c[:n]), np.sort(c[n:])):
            m = np.empty_like(c[:n])
            m[np.argsort(c[:n], kind="stable")] = np.argsort(c[n:], kind="stable")
            if np.array_equal(m[a], b[m[:, None], m[None, :]]):
                return tuple(m.tolist())
            size = np.bincount(c[:n])[c[:n]]
            if size.max() > 1:
                x = int(np.argmax(size > 1))
                levels.append((c, x, iter(np.flatnonzero(c[n:] == c[x]).tolist())))
        while levels and (y := next(levels[-1][2], None)) is None:
            levels.pop()
        if not levels:
            return None
        p, x, _ = levels[-1]
        c = np.array(refine_colors(a, b, np.where(np.isin(np.arange(2 * n), (x, n + y)), p.max() + 1, p)))
