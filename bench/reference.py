"""Reference computations the oracles compare against.

Nothing here imports bckcodes: every table, order, filter set and axiom
check is rebuilt from the definitions, so a defect in the package cannot
hide itself by also being in its own oracle.
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# codes, orders and tables
# ---------------------------------------------------------------------------

def random_code(rng: np.random.Generator, words: int, length: int) -> np.ndarray:
    """`words` distinct random words of `length` bits, none all ones."""
    seen: set[bytes] = set()
    rows = []
    while len(rows) < words:
        row = rng.integers(0, 2, size=length, dtype=np.uint8)
        key = row.tobytes()
        if key not in seen and not row.all():
            seen.add(key)
            rows.append(row)
    return np.array(rows, dtype=np.uint8)


def sort_desc(code: np.ndarray) -> np.ndarray:
    """Rows in descending bitstring order ('1' > '0', left to right)."""
    keys = ["".join(map(str, row)) for row in code]
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    return code[order]


def below(rows: np.ndarray) -> np.ndarray:
    """below[i, j]: row i sits below row j in the domination order, that is
    row j's support is inside row i's (the all-ones word is least)."""
    r = rows.astype(bool)
    covered = r[:, None, :] | ~r[None, :, :]
    return covered.all(axis=2)


def star_table(rows: np.ndarray) -> np.ndarray:
    """x*y is theta (element 0) when x <= y and x otherwise; row 0 must be
    the least element."""
    n = rows.shape[0]
    return np.where(below(rows), 0, np.arange(n)[:, None]).astype(np.int64)


def embedded_rows(code: np.ndarray) -> np.ndarray:
    """Square unit-diagonal extension of a code: identity prefix, sorted code
    block, identity tail rows, then an all-ones row prepended."""
    c = sort_desc(code)
    n, m = c.shape
    block = np.zeros((n + m, n + m), dtype=np.uint8)
    block[:n, :n] = np.eye(n, dtype=np.uint8)
    block[:n, n:] = c
    block[n:, n:] = np.eye(m, dtype=np.uint8)
    full = np.zeros((n + m + 1, n + m + 1), dtype=np.uint8)
    full[0, :] = 1
    full[1:, 1:] = block
    return full


def direct_rows(code: np.ndarray) -> np.ndarray:
    """The codewords themselves, sorted, with the all-ones word first."""
    ones = np.ones((1, code.shape[1]), dtype=np.uint8)
    rest = [row for row in sort_desc(code) if not row.all()]
    return np.vstack([ones] + rest) if rest else ones


def semisimple_code(n: int) -> np.ndarray:
    code = np.zeros((n, n), dtype=np.uint8)
    code[0, :] = 1
    for i in range(1, n):
        code[i, i] = 1
    return code


def local_code(n: int, free_bit: int) -> np.ndarray:
    """Upper-triangular unit-diagonal matrix with all-ones first row and last
    column; every free cell (2 <= i < j <= n-1, 1-based) set to `free_bit`."""
    code = np.eye(n, dtype=np.uint8)
    code[0, :] = 1
    code[:, n - 1] = 1
    for i in range(1, n - 2):
        code[i, i + 1 : n - 1] = free_bit
    return code


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table with element x renamed perm[x]."""
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def code_text(code: np.ndarray) -> str:
    return "".join("".join(map(str, row)) + "\n" for row in code)


def alg_text(table: np.ndarray, kind: str) -> str:
    lines = [f"kind {kind}", f"n {table.shape[0]}", "theta 0"]
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def parse_alg(text: str) -> tuple[str, np.ndarray, list[str] | None]:
    """(kind, table, labels) of an .alg text, renumbered so theta is 0 with
    the other elements in their original order."""
    header: dict[str, list[str]] = {}
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not rows and tokens[0] in ("kind", "n", "theta", "labels"):
            header[tokens[0]] = tokens[1:]
        else:
            rows.append([int(tok) for tok in tokens])
    table = np.array(rows, dtype=np.int64)
    labels = header.get("labels")
    theta = int(header["theta"][0])
    if theta:
        order = [theta] + [i for i in range(len(rows)) if i != theta]
        new_of = np.empty(len(order), dtype=np.int64)
        new_of[order] = np.arange(len(order))
        table = relabel(table, new_of)
        labels = [labels[i] for i in order] if labels else None
    return header["kind"][0], table, labels


# ---------------------------------------------------------------------------
# properties, axioms, covers
# ---------------------------------------------------------------------------

def _first(mask: np.ndarray) -> list[int] | None:
    hits = np.argwhere(mask)
    return [int(v) for v in hits[0]] if len(hits) else None


def property_witnesses(t: np.ndarray) -> dict[str, list[int] | None]:
    """First lexicographic counterexample of each BCK property, or None."""
    n = t.shape[0]
    idx = np.arange(n)
    left = t[idx[:, None], t]                     # x*(x*y)
    found = {
        "commutative": _first(left != left.T),
        "implicative": _first(t[idx[:, None], t.T] != idx[:, None]),
        "positive_implicative": None,
    }
    for x in range(n):                            # (x*y)*z == (x*z)*(y*z)
        g = t[t[x][:, None], idx[None, :]]
        h = t[t[x][None, :], t]
        hit = _first(g != h)
        if hit is not None:
            found["positive_implicative"] = [x] + hit
            break
    return found


def bck_axiom_fails(t: np.ndarray, axiom: int, w: list[int]) -> bool:
    """Whether BCK axiom `axiom` is violated at witness `w` (theta = 0)."""
    if axiom == 1:
        x, y, z = w
        return t[t[t[x, y], t[x, z]], t[z, y]] != 0
    if axiom == 2:
        x, y = w
        return t[t[x, t[x, y]], y] != 0
    if axiom == 3:
        return t[w[0], w[0]] != 0
    if axiom == 4:
        x, y = w
        return x != y and t[x, y] == 0 and t[y, x] == 0
    if axiom == 5:
        return t[0, w[0]] != 0
    return False


def covers(rows: np.ndarray) -> set[tuple[int, int]]:
    """Covering pairs (lower, upper) of the domination order."""
    strict = below(rows) & ~np.eye(rows.shape[0], dtype=bool)
    s = strict.astype(np.int64)
    return {(int(i), int(j)) for i, j in np.argwhere(strict & ((s @ s) == 0))}


# ---------------------------------------------------------------------------
# filters of a dot table, by brute force over every subset containing theta
# ---------------------------------------------------------------------------

def filter_masks(dot: np.ndarray) -> list[int]:
    """Every filter as a bitmask, sorted by (cardinality, mask): subsets with
    theta that contain y whenever they contain x and x.y."""
    n = dot.shape[0]
    masks = np.arange(1 << (n - 1), dtype=np.int64) << 1 | 1
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    ok = np.ones(len(masks), dtype=bool)
    for x in range(n):
        for y in range(n):
            ok &= ~(member[:, x] & member[:, dot[x, y]] & ~member[:, y])
    found = [int(m) for m in masks[ok]]
    return sorted(found, key=lambda m: (bin(m).count("1"), m))


def maximal_masks(masks: list[int], n: int) -> list[int]:
    """Proper filters not strictly inside another proper filter."""
    carrier = (1 << n) - 1
    proper = np.array([m for m in masks if m != carrier], dtype=np.int64)
    keep = []
    for start in range(0, len(proper), 512):
        chunk = proper[start : start + 512]
        inside = (chunk[:, None] & proper[None, :]) == chunk[:, None]
        keep.extend(int(m) for m, c in zip(chunk, inside.sum(axis=1)) if c == 1)
    return sorted(keep, key=lambda m: (bin(m).count("1"), m))


def members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
