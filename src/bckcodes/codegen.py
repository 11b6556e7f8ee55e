"""Recovering codes from algebras via cut rows, the semisimple/local code
families, and the isomorphism census with its matrix-count bound: exhaustive
up to n = 8 by factoring row 1 out of the enumeration, sampled above."""
from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .algebra import require_axioms
from .embedding import embed_code
from .errors import UsageError
from .model import (
    STAR,
    BlockCode,
    CensusReport,
    CutResult,
    OpTable,
    RoundtripReport,
    row_strings,
)
from .posets import domination_leq

CENSUS_EXHAUSTIVE_MAX_N = 8
CENSUS_SAMPLE_MAX_N = 16
_BATCH = 4096


def _cut_words(alg: OpTable, rows, cols) -> tuple[str, ...]:
    """Bit (r, x) is 1 exactly when r * x is theta = 0."""
    return row_strings(alg.table[np.ix_(rows, cols)] == 0)


def cut_code(alg: OpTable, rows, cols) -> CutResult:
    """One codeword per row element: the bit at column element x is 1 exactly
    when row * x is theta.  Duplicate words are kept in the raw list and
    deduplicated (first occurrence wins) when packaging the block code."""
    rows, cols = tuple(int(i) for i in rows), tuple(int(i) for i in cols)
    if not rows or not cols:
        raise UsageError("cut spec needs at least one row and one column element")
    if alg.kind != STAR:
        raise UsageError("cut rows are read off a star table")
    require_axioms(alg, "bck")
    for i in rows + cols:
        if not (0 <= i < alg.n):
            raise UsageError(f"cut spec element {i} out of range [0, {alg.n})")
    words = _cut_words(alg, rows, cols)
    first: dict[str, int] = {}
    collisions = []
    for pos, w in enumerate(words):
        if w in first:
            collisions.append((first[w], pos))
        else:
            first[w] = pos
    return CutResult(words=words, code=BlockCode.from_strings(first), collisions=tuple(collisions))


def roundtrip_check(c: BlockCode) -> RoundtripReport:
    """Embed the code, read it back out over (code rows x tail elements) and
    compare with the lex-sorted input word for word.  The embedded table is
    a BCK-algebra by construction, so it is not re-verified."""
    emb = embed_code(c)
    recovered = _cut_words(emb.algebra, emb.code_row_elements, emb.tail_elements)
    expected = BlockCode(c.matrix[list(emb.sort_permutation)])
    mismatch = None
    for i, (got, want) in enumerate(zip(recovered, expected.strings())):
        if got != want:
            mismatch = i
            break
    ok = mismatch is None and len(recovered) == expected.size
    return RoundtripReport(ok=ok, expected=expected, recovered=recovered, first_mismatch=mismatch)


def semisimple_family(n: int) -> BlockCode:
    """n words of length n: the all-ones word followed by the unit vectors
    with the 1 in positions 2..n.  Lex-descending by construction."""
    if n < 2:
        raise UsageError("the semisimple family needs n >= 2")
    mat = np.eye(n, dtype=np.uint8)
    mat[0] = 1
    return BlockCode(mat)


def local_family_free_bit_count(n: int) -> int:
    return (n - 2) * (n - 3) // 2 if n >= 3 else 0


def local_family(n: int, free_bits="") -> BlockCode:
    """n words of length n forming an upper-triangular unit-diagonal matrix
    with all-ones first row and all-ones last column; the cells (i, j) with
    2 <= i < j <= n-1 (1-based) come from `free_bits` in row-major order.
    Row i leads with its diagonal 1 where every later row is 0, so the rows
    are lex-descending for every assignment."""
    if n < 2:
        raise UsageError("the local family needs n >= 2")
    if any(str(b) not in ("0", "1") for b in free_bits):
        raise UsageError(f"free bits must be 0 or 1, got {free_bits!r}")
    bits = [int(b) for b in free_bits]
    positions = [(i, j) for i in range(1, n - 2) for j in range(i + 1, n - 1)]
    if len(bits) != len(positions):
        raise UsageError(
            f"the local family with n={n} needs exactly {len(positions)} free bits, got {len(bits)}"
        )
    mat = np.eye(n, dtype=np.uint8)
    mat[0, :] = 1
    mat[:, n - 1] = 1
    for (i, j), b in zip(positions, bits):
        mat[i, j] = b
    return BlockCode(mat)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _census_positions(n: int) -> list[tuple[int, int]]:
    # above-diagonal cells of rows 2..n-1 (1-based), row-major
    return [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]


def _bits_from_indices(ks: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((ks[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _matrices_from_bits(n: int, bits: np.ndarray) -> np.ndarray:
    positions = _census_positions(n)
    count = bits.shape[0]
    mats = np.zeros((count, n, n), dtype=np.uint8)
    idx = np.arange(n)
    mats[:, idx, idx] = 1
    mats[:, 0, :] = 1
    for p, (i, j) in enumerate(positions):
        mats[:, i, j] = bits[:, p]
    return mats


def _twins(up: list[int]) -> list[int]:
    """Each element's twin class as a bitmask: the elements with its strict
    up- and down-sets, which an automorphism swaps with it."""
    n = len(up)
    down = [0] * n
    for x, above in enumerate(up):
        strict = above ^ 1 << x
        while strict:
            down[(strict ^ (strict - 1)).bit_length() - 1] |= 1 << x
            strict &= strict - 1  # drop the lowest bit
    classes: dict[tuple[int, int], int] = {}
    for x in range(n):
        sets = (up[x] ^ 1 << x, down[x])
        classes[sets] = classes.get(sets, 0) | 1 << x
    return [classes[(up[x] ^ 1 << x, down[x])] for x in range(n)]


def _census_labelling(up: list[int]) -> tuple[list[int], int]:
    """The relabeling behind the census key of an order, and the key.

    Bit y of up[x] says x <= y, and theta = 0 is below every element.  New
    element k is old element p[k], and p[0] = 0.  Relabeled by p, entry
    (i, j) of the census table is 0 if p_i <= p_j and i otherwise; the key
    is that table's rows 1..n-1 with each entry written as one bit (1 where
    it is i), concatenated as an int.  Keys of one n compare as the table
    bytes do, and p makes the table lexicographically minimal.

    The search is individualization-refinement (McKay & Piperno, Practical
    graph isomorphism II, 2014) on an ordered partition of the unplaced
    elements, each cell a bitmask: p_k is picked from the first cell, then
    every cell is split into the elements above p_k followed by the others,
    which fixes row k.  Every state whose row k is minimal goes on to the
    next level.  Twins are swapped by an automorphism, so one per twin class
    is tried in a cell.

    Masks are taken as `full ^ mask`, never `~mask`: non-negative masks of
    n <= 8 bits are Python's cached small ints, and under tracemalloc (the
    memory tests) each int allocated here costs a scan of this function's
    line table.
    """
    n = len(up)
    full = (1 << n) - 1
    others = [full ^ twins for twins in _twins(up)]
    key = 0
    states = [((0,), full ^ 1, [])]  # (placed, first cell, later cells)
    for k in range(1, n):
        best, kept = None, []
        for placed, first, rest in states:
            todo = first
            while todo:
                x = (todo ^ (todo - 1)).bit_length() - 1  # its lowest element
                todo &= others[x]
                below = full ^ up[x]  # bit y: x is not <= y
                row = 0
                for y in placed:
                    row = row << 1 | (below >> y & 1)
                row <<= 1  # x <= x reads 0
                if best is not None and row > best >> (n - 1 - k):
                    continue
                # each cell's elements above x come first and read 0
                cells = [first ^ 1 << x, *rest]
                for cell in cells:
                    row = row << cell.bit_count() | ((1 << (cell & below).bit_count()) - 1)
                if best is None or row < best:
                    best, kept = row, []
                if row == best:
                    kept.append(((*placed, x), below, cells))
        key = key << n | best
        states = []
        for placed, below, cells in kept:
            split = []
            for cell in cells:
                lo = cell & below
                if lo != cell:
                    split.append(cell ^ lo)
                if lo:
                    split.append(lo)
            states.append((placed, split[0] if split else 0, split[1:]))
    return list(states[0][0]), key


def _up_masks(leq: np.ndarray) -> np.ndarray:
    """Bit y of mask x says x <= y, for an order or a batch of them."""
    return leq @ (1 << np.arange(leq.shape[-1], dtype=np.int64))


def _form_bytes(key: int, n: int) -> bytes:
    """The census table that the key of an n-element order stands for."""
    bits = f"{key:0{n * (n - 1)}b}"
    return bytes(n) + bytes(i // n + 1 if b == "1" else 0 for i, b in enumerate(bits))


def _census_form(leq: np.ndarray) -> bytes:
    """Canonical key of the census algebra on the order `leq` (theta = 0,
    x * y = 0 if x <= y else x): its lexicographically minimal row-major
    table over the relabelings that keep theta at 0."""
    return _form_bytes(_census_labelling(_up_masks(leq).tolist())[1], len(leq))


# The census maps these two over chunks of distinct orders, in a pool or not.
def _labellings(ups: list[list[int]]) -> list[tuple[list[int], int]]:
    return [_census_labelling(up) for up in ups]


def _pair_keys(pairs: list[tuple[list[int], int]]) -> list[int]:
    """The key of each (suffix, up-set) pair.  Its order on n elements is
    the suffix's canonically labelled order with elements 1.. renamed 2..,
    plus a new element 1 above theta alone; bit j of the up-set says that
    1 is below suffix element j+1."""
    keys = []
    for suffix, upset in pairs:
        n = len(suffix) + 1
        up = [(1 << n) - 1, 2 | upset << 2, *(above << 1 for above in suffix[1:])]
        keys.append(_census_labelling(up)[1])
    return keys


def _order_ids(mats: np.ndarray, orders: dict[bytes, int]) -> np.ndarray:
    """The id of each matrix's domination order in `orders` (bit-packed
    order -> id, numbered as first seen), adding the orders not yet there."""
    n = mats.shape[-1]
    packed = np.packbits(domination_leq(mats).reshape(len(mats), n * n), axis=1)
    uniq, inverse = np.unique(packed, axis=0, return_inverse=True)
    ids = [orders.setdefault(row.tobytes(), len(orders)) for row in uniq]
    return np.array(ids, dtype=np.int64)[inverse.ravel()]


def _order_masks(orders: dict[bytes, int], n: int) -> list[list[int]]:
    """The up-masks of every order in `orders`, in id order."""
    packed = np.frombuffer(b"".join(orders), dtype=np.uint8).reshape(len(orders), -1)
    return _up_masks(np.unpackbits(packed, axis=1, count=n * n).reshape(-1, n, n)).tolist()


def _new_tally(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per group: a matrix count of 0 and no minimal position yet."""
    return np.zeros(size, dtype=np.int64), np.full(size, np.iinfo(np.int64).max)


def _tally(counts: np.ndarray, first: np.ndarray, group: np.ndarray, count, pos) -> None:
    """Add `count` matrices at positions `pos` to their groups: counts are
    summed and the minimal position kept."""
    np.add.at(counts, group, count)
    np.minimum.at(first, group, pos)


def _classes(keys: list[int], counts: np.ndarray, first: np.ndarray) -> dict[int, list[int]]:
    """Map census key -> [matrix count, minimal global position], from
    groups of matrices whose key is keys[g]."""
    index: dict[int, int] = {}
    group = np.array([index.setdefault(k, len(index)) for k in keys], dtype=np.int64)
    total, low = _new_tally(len(index))
    _tally(total, low, group, counts, first)
    return {k: [c, p] for k, c, p in zip(index, total.tolist(), low.tolist())}


def _sampled_classes(n: int, bits: np.ndarray, keyer) -> dict[int, list[int]]:
    """Census classes of the sampled matrices `bits`: one key per distinct
    domination order.  keyer(fn, items) is fn(items), in this process or
    split over a pool."""
    orders: dict[bytes, int] = {}
    ids = np.concatenate([
        _order_ids(_matrices_from_bits(n, bits[lo : lo + _BATCH]), orders)
        for lo in range(0, len(bits), _BATCH)
    ])
    counts, first = _new_tally(len(orders))
    _tally(counts, first, ids, 1, np.arange(len(bits)))
    keys = [key for _, key in keyer(_labellings, _order_masks(orders, n))]
    return _classes(keys, counts, first)


def _suffix_classes(ups: list[list[int]], keyer) -> tuple[np.ndarray, np.ndarray, list]:
    """Label each distinct suffix order canonically: its labelling p and
    class per order (rows in id order), and the canonically labelled
    up-masks of one order per class."""
    labellings = keyer(_labellings, ups)
    canonical: dict[int, int] = {}
    suffixes = []
    for up, (p, key) in zip(ups, labellings):
        if key not in canonical:
            canonical[key] = len(suffixes)
            suffixes.append([sum(1 << j for j, y in enumerate(p) if up[x] >> y & 1) for x in p])
    labels = np.array([p for p, _ in labellings], dtype=np.int64).reshape(len(ups), -1)
    suffix_class = np.array([canonical[key] for _, key in labellings], dtype=np.int64)
    return labels, suffix_class, suffixes


def _exhaustive_classes(n: int, keyer) -> dict[int, list[int]]:
    """Census classes of every matrix, with row 1 factored out.

    Rows 2..n-1 of a family matrix form a family matrix on m = n-1 elements,
    its suffix, and the free bits S of row 1 lead the global index:
    S << free(m) | suffix index.  The order on n elements is the suffix's
    order plus a new element, 1, that is above theta and nothing else and
    whose strict up-set is {j : supp(j) within S}.  So each distinct suffix order
    is labelled canonically once, every up-set of every suffix is mapped
    through that labelling, and only the distinct (suffix class, up-set)
    pairs are keyed (McKay, Isomorph-free exhaustive generation, 1998).
    """
    m = n - 1
    free_m = (m - 1) * (m - 2) // 2
    subsets = np.arange(1 << (m - 1), dtype=np.int64)  # every S
    # suffix column j >= 1 is matrix column j+1, bit m-1-j of S
    column_bits = 1 << np.arange(m - 2, -1, -1, dtype=np.int64)
    orders: dict[bytes, int] = {}
    blocks = []
    for lo in range(0, 1 << free_m, _BATCH):
        hi = min(lo + _BATCH, 1 << free_m)
        bits = _bits_from_indices(np.arange(lo, hi, dtype=np.uint64), free_m)
        mats = _matrices_from_bits(m, bits)
        blocks.append((lo, hi, _order_ids(mats, orders), mats[:, 1:, 1:] @ column_bits))

    labels, suffix_class, suffixes = _suffix_classes(_order_masks(orders, m), keyer)
    counts, first = _new_tally(len(suffixes) << (m - 1))
    for lo, hi, ids, supports in blocks:
        # the supports of canonical elements 1..m-1, in that order
        support = np.take_along_axis(supports, labels[ids, 1:] - 1, axis=1)
        upset = np.zeros((hi - lo, len(subsets)), dtype=np.int64)
        for j in range(m - 1):
            upset |= ((support[:, j, None] & ~subsets) == 0) << j
        pair = suffix_class[ids, None] << (m - 1) | upset
        pos = subsets << free_m | np.arange(lo, hi, dtype=np.int64)[:, None]
        _tally(counts, first, pair.ravel(), 1, pos.ravel())

    present = np.flatnonzero(counts)
    pairs = [
        (suffixes[c], upset)
        for c, upset in zip((present >> (m - 1)).tolist(), (present & (len(subsets) - 1)).tolist())
    ]
    return _classes(keyer(_pair_keys, pairs), counts[present], first[present])


def _pooled(pool, workers: int, fn, items: list) -> list:
    """fn over `workers` contiguous chunks of items in the pool, flattened."""
    bounds = np.linspace(0, len(items), workers + 1, dtype=np.int64).tolist()
    chunks = pool.map(fn, [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    return [out for chunk in chunks for out in chunk]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def census(n: int, sample_count: int | None = None, seed: int = 0, jobs: int = 1) -> CensusReport:
    """Partition the all-ones-first upper-triangular matrix family on n
    elements into isomorphism classes of the induced algebras.

    Exhaustive when `sample_count` is None (n <= 8), otherwise a seeded
    uniform sample of free-bit assignments (`seed` >= 0).  Classes are
    grouped and ordered by one key, the lexicographically minimal
    theta-fixing relabeling of their tables (`_census_labelling`, an
    ordered-partition search on bitmasks), so the report is identical for
    any worker count.  The exhaustive census keys each distinct order of
    rows 2..n-1 once and then each distinct (suffix class, up-set of row 1)
    pair, not each matrix (see `_exhaustive_classes`); a sample is keyed
    once per distinct order.  This process enumerates and tallies; workers
    only key the distinct orders, so each is keyed once for any worker
    count.  Workers are capped by the usable CPUs and the matrix count.
    """
    if n < 2:
        raise UsageError("census needs n >= 2")
    free = (n - 1) * (n - 2) // 2
    total = 1 << free
    if sample_count is None:
        if n > CENSUS_EXHAUSTIVE_MAX_N:
            raise UsageError(
                f"exhaustive census is limited to n <= {CENSUS_EXHAUSTIVE_MAX_N} "
                f"({total} matrices at n={n}); use sampling instead"
            )
        evaluated = total
        sample_bits = None
        mode = "exhaustive"
    else:
        if n > CENSUS_SAMPLE_MAX_N:
            raise UsageError(f"census is limited to n <= {CENSUS_SAMPLE_MAX_N}")
        if sample_count < 1:
            raise UsageError("sample count must be positive")
        if seed < 0:
            raise UsageError("seed must be non-negative")
        rng = np.random.default_rng(seed)
        sample_bits = rng.integers(0, 2, size=(sample_count, free), dtype=np.uint8)
        evaluated = sample_count
        mode = "sample"
    if jobs < 1:
        raise UsageError("jobs must be positive")

    workers = min(jobs, _usable_cpus(), evaluated)
    if sample_bits is None:
        search = functools.partial(_exhaustive_classes, n)
    else:
        search = functools.partial(_sampled_classes, n, sample_bits)
    if workers == 1:
        classes = search(lambda fn, items: fn(items))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            classes = search(functools.partial(_pooled, pool, workers))

    ordered = sorted(classes.items())
    sizes = tuple(count for _, (count, _) in ordered)
    positions = np.array([pos for _, (_, pos) in ordered], dtype=np.int64)
    if sample_bits is None:
        bits = _bits_from_indices(positions.astype(np.uint64), free)
    else:
        bits = sample_bits[positions]
    return CensusReport(
        n=n,
        free_bits=free,
        total_matrices=total,
        evaluated=evaluated,
        mode=mode,
        class_count=len(ordered),
        class_sizes=sizes,
        class_representatives=tuple(row_strings(mat) for mat in _matrices_from_bits(n, bits)),
        bound=total,
        bound_met=len(ordered) >= total,
    )
