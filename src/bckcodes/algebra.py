"""Axiom verification, duality, order extraction and isomorphism testing
for finite operation tables."""
from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import UsageError
from .model import DOT, STAR, AxiomReport, OpTable, Poset

KINDS = ("bci", "bck", "hilbert")


def verify_axioms(t: OpTable, kind: str) -> AxiomReport:
    """Exhaustively check every axiom instance of the requested kind.

    Witnesses are the first violation per axiom in lexicographic (x, y, z)
    scan order.  The table orientation must match: bci/bck run on star
    tables, hilbert on dot tables.
    """
    if kind not in KINDS:
        raise UsageError(f"unknown axiom kind {kind!r}, expected one of {KINDS}")
    if kind in ("bci", "bck") and t.kind != STAR:
        raise UsageError(f"{kind} axioms apply to star tables, got a {t.kind} table")
    if kind == "hilbert" and t.kind != DOT:
        raise UsageError(f"hilbert axioms apply to dot tables, got a {t.kind} table")
    if kind == "hilbert":
        scan = _kernels.hilbert_axiom_scan(t.table)
    else:
        scan = _kernels.bck_axiom_scan(t.table)
        if kind == "bci":
            scan = scan[:4]
    violations = tuple((axiom, w) for axiom, w in enumerate(scan, start=1) if w is not None)
    return AxiomReport(violations=violations)


def require_axioms(t: OpTable, kind: str) -> None:
    """Raise a UsageError naming the first failing axiom unless `t` passes
    the "bck" or "hilbert" axioms."""
    report = verify_axioms(t, kind)
    if not report.passed:
        axiom, witness = report.violations[0]
        name = "a BCK-algebra" if kind == "bck" else "a Hilbert algebra"
        raise UsageError(f"table is not {name} (axiom {axiom} fails at {witness})")


PROPERTIES = ("commutative", "implicative", "positive_implicative")


def bck_properties(t: OpTable) -> dict[str, tuple[int, ...] | None]:
    """Commutativity, implicativity and positive implicativity of a valid
    BCK star table: property name -> first counterexample, or None when the
    property holds."""
    require_axioms(t, "bck")
    return dict(zip(PROPERTIES, _kernels.bck_property_scan(t.table)))


def dualize(t: OpTable) -> OpTable:
    """Transpose the table and toggle its orientation; labels carry over.
    Involution."""
    return OpTable(table=t.table.T, kind=DOT if t.kind == STAR else STAR, labels=t.labels)


def bck_order(t: OpTable) -> Poset:
    """The partial order x <= y iff x*y = theta of a BCK star table, with
    theta = 0 below every element."""
    if t.kind != STAR:
        raise UsageError("bck_order needs a star table")
    problem = "table does not induce a partial order"
    try:
        poset = Poset(leq=t.table == 0, labels=t.labels)
    except UsageError as exc:
        raise UsageError(f"{problem}: {exc}") from None
    if not poset.leq[0].all():
        raise UsageError(f"{problem}: element 0 is not below every element")
    return poset


def refine_colors(table: np.ndarray) -> list[int]:
    """Iterated partition refinement: invariant color per element.

    Colors start from (is theta, #y with x∘y=theta, #y with y∘x=theta) and
    are refined with the multiset of (color(y), color(x∘y), color(y∘x)) until
    stable.  Color ids are canonical (sorted signature order), so isomorphic
    tables get identical color multisets.
    """
    t = np.asarray(table)
    n = t.shape[0]
    row_theta = (t == 0).sum(axis=1)
    col_theta = (t == 0).sum(axis=0)
    sig = [(int(x == 0), int(row_theta[x]), int(col_theta[x])) for x in range(n)]
    colors = _canonical_ids(sig)
    for _ in range(n):
        sig = [
            (
                colors[x],
                tuple(sorted((colors[y], colors[t[x, y]], colors[t[y, x]]) for y in range(n))),
            )
            for x in range(n)
        ]
        new = _canonical_ids(sig)
        if new == colors:
            break
        colors = new
    return colors


def _canonical_ids(signatures) -> list[int]:
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def are_isomorphic(t1: OpTable, t2: OpTable) -> tuple[int, ...] | None:
    """Search for a theta-fixing isomorphism by backtracking: the mapping
    (entry x is the image of element x), or None when there is none.

    Candidates are pruned by refined partition colors and tried in index
    order, so the returned mapping is deterministic.
    """
    if t1.kind != t2.kind:
        raise UsageError("cannot compare tables of different kinds")
    for t in (t1, t2):
        require_axioms(t, "hilbert" if t.kind == DOT else "bck")
    n = t1.n
    if n != t2.n:
        return None

    a, b = t1.table, t2.table
    colors1 = refine_colors(a)
    colors2 = refine_colors(b)
    if sorted(colors1) != sorted(colors2):
        return None

    mapping = [0] + [-1] * (n - 1)
    used = [True] + [False] * (n - 1)
    order = range(1, n)

    def consistent(x: int, y: int) -> bool:
        for z in range(n):
            w = mapping[z]
            if w < 0:
                continue
            img = mapping[a[x, z]]
            if img >= 0 and b[y, w] != img:
                return False
            img = mapping[a[z, x]]
            if img >= 0 and b[w, y] != img:
                return False
        img = mapping[a[x, x]]
        if img >= 0 and b[y, y] != img:
            return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            # values a[u,v] assigned after max(u, v) escape the incremental
            # check, so accept only after verifying the full equation
            perm = np.array(mapping, dtype=np.int64)
            return bool(np.array_equal(perm[a], b[perm[:, None], perm[None, :]]))
        x = order[k]
        for y in range(n):
            if used[y] or colors2[y] != colors1[x]:
                continue
            if not consistent(x, y):
                continue
            mapping[x] = y
            used[y] = True
            if extend(k + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    return tuple(mapping) if extend(0) else None
