import functools
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bckcodes import STAR, BlockCode, OpTable

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def star_table(rows, labels=None) -> OpTable:
    return OpTable(table=np.array(rows, dtype=np.int64), kind=STAR, labels=labels)


def all_words(length: int) -> np.ndarray:
    """Every 0/1 word of the given length, one per row, all-ones last."""
    return np.array(list(product((0, 1), repeat=length)), dtype=np.uint8)


def loop_leq(rows) -> np.ndarray:
    """Oracle: leq[i, j] is all(r[j] <= r[i]) over the bit positions."""
    rows = np.asarray(rows).tolist()
    return np.array([[all(b <= a for a, b in zip(ri, rj)) for rj in rows] for ri in rows], dtype=bool)


def brute_filters(dot_table: np.ndarray, theta: int = 0) -> list[frozenset]:
    """Independent oracle: scan every theta-containing subset for deductive
    closure."""
    n = dot_table.shape[0]
    rest = [i for i in range(n) if i != theta]
    out = []
    for r in range(n):
        for sub in combinations(rest, r):
            members = frozenset((theta,) + sub)
            if _closed(dot_table, members):
                out.append(members)
    return out


def _closed(dot_table: np.ndarray, members: frozenset) -> bool:
    n = dot_table.shape[0]
    for x in members:
        for y in range(n):
            if y not in members and int(dot_table[x][y]) in members:
                return False
    return True


def filter_witness(dot_table: np.ndarray, members) -> tuple[bool, tuple[int, int] | None]:
    """Oracle for `is_filter`: whether the set holds theta (0) and is
    deductively closed, with the first violating (x, y) in index order: x
    inside, y outside, x.y inside."""
    if 0 not in members:
        return False, None
    inside = np.zeros(len(dot_table), dtype=bool)
    inside[list(members)] = True
    xs, ys = np.nonzero(inside[:, None] & ~inside & inside[dot_table])
    return (True, None) if len(xs) == 0 else (False, (int(xs[0]), int(ys[0])))


def brute_maximal(dot_table: np.ndarray, theta: int = 0) -> list[frozenset]:
    n = dot_table.shape[0]
    carrier = frozenset(range(n))
    proper = [f for f in brute_filters(dot_table, theta) if f != carrier]
    return [f for f in proper if not any(f < g for g in proper)]


def heyting_downsets(leq: np.ndarray) -> tuple[np.ndarray, int]:
    """Dot table of Heyting implication on the down-sets of the poset `leq`
    (leq[i, j] means i <= j), and the index of theta, the whole poset.

    Down-sets are listed by size, then bitmask, so theta comes last.  A . B
    is the largest down-set C with C & A inside B: every point whose
    principal down-set meets A only inside B.  When the poset is not a chain
    some A . B is neither theta nor B, so no poset induces the table.
    """
    k = len(leq)
    below = [sum(1 << i for i in range(k) if leq[i, p]) for p in range(k)]
    downsets = [
        m
        for m in range(1 << k)
        if all(below[p] & ~m == 0 for p in range(k) if m >> p & 1)
    ]
    downsets.sort(key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(downsets)}
    table = [
        [index[sum(1 << p for p in range(k) if below[p] & a & ~b == 0)] for b in downsets]
        for a in downsets
    ]
    return np.array(table, dtype=np.int64), len(downsets) - 1


@functools.cache
def posets_up_to_iso(k: int) -> tuple[np.ndarray, ...]:
    """One poset per isomorphism class on k elements, as read-only `leq`
    matrices: the first labelled poset of each class, whose canonical form
    is the minimal serialization over all k! relabelings."""
    rels = labeled_posets(k)
    rels.setflags(write=False)
    perms = np.array(list(permutations(range(k))), dtype=np.intp).reshape(-1, k)
    # cell (i, j) of relabeling p reads cell (p_i, p_j): one gather over all k!
    cells = (perms[:, :, None] * k + perms[:, None, :]).reshape(len(perms), k * k)
    packed = np.packbits(rels.reshape(len(rels), k * k)[:, cells], axis=2)
    # big-endian words compare as the serializations do (k <= 8)
    words = np.zeros(packed.shape[:2] + (8,), dtype=np.uint8)
    words[:, :, : packed.shape[2]] = packed
    keys = words.view(">u8")[:, :, 0].min(axis=1)
    first = np.unique(keys, return_index=True)[1]
    return tuple(rels[i] for i in np.sort(first))


def labeled_posets(k: int) -> np.ndarray:
    """Every reflexive-antisymmetric-transitive relation on k elements,
    found by scanning all off-diagonal bit masks."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    width = len(pairs)
    eye = np.eye(k, dtype=bool)
    kept = []
    for start in range(0, 2**width, 1 << 18):
        masks = np.arange(start, min(start + (1 << 18), 2**width), dtype=np.uint64)
        bits = ((masks[:, None] >> np.arange(width, dtype=np.uint64)) & 1).astype(bool)
        rel = np.zeros((len(masks), k, k), dtype=bool)
        for b, (i, j) in enumerate(pairs):
            rel[:, i, j] = bits[:, b]
        rel |= eye
        antisym = ~((rel & rel.transpose(0, 2, 1) & ~eye).any(axis=(1, 2)))
        reach = np.matmul(rel.astype(np.int8), rel.astype(np.int8)) > 0
        transitive = ~((reach & ~rel).any(axis=(1, 2)))
        kept.append(rel[antisym & transitive])
    return np.concatenate(kept)


def random_codes(count: int, seed: int, max_words: int = 8, max_length: int = 8):
    """Seeded duplicate-free random codes with n, m <= the given caps."""
    rng = np.random.default_rng(seed)
    codes = []
    while len(codes) < count:
        m = int(rng.integers(1, max_length + 1))
        n = int(rng.integers(1, min(2**m, max_words) + 1))
        words = set()
        attempts = 0
        while len(words) < n and attempts < 200:
            bits = rng.integers(0, 2, size=m)
            words.add("".join(str(int(b)) for b in bits))
            attempts += 1
        if len(words) == n:
            codes.append(BlockCode.from_strings(sorted(words, reverse=True)))
    return codes
