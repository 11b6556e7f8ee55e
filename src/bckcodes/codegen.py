"""Recovering codes from algebras via cut rows, the semisimple/local code
families, and the isomorphism census with its matrix-count bound: exhaustive
up to n = 8 by factoring row 1 out of the enumeration, sampled above."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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
from .posets import _packed_leq

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

def _bits_from_indices(ks: np.ndarray, width: int) -> np.ndarray:
    """Each int of ks as `width` bits, the highest first, decoded one
    column at a time."""
    bits = np.empty((len(ks), width), dtype=np.uint8)
    for j in range(width):
        bits[:, j] = ks >> (width - 1 - j) & 1
    return bits


def _family_rows(n: int, bits: np.ndarray) -> np.ndarray:
    """The family matrix of each row of free bits, as its n rows read as
    binary numbers, column 0 the highest bit.  Row 0 is all ones; row i is
    its diagonal 1 followed by the next n-1-i free bits, which fill the
    above-diagonal cells of rows 2..n-1 (1-based) row-major."""
    rows = np.empty((len(bits), n), dtype=np.int64)
    rows[:, 0] = (1 << n) - 1
    start = 0
    for i in range(1, n):
        width = n - 1 - i
        rows[:, i] = 1 << width | bits[:, start : start + width] @ (1 << np.arange(width)[::-1])
        start += width
    return rows


def _domination_up(rows: np.ndarray) -> np.ndarray:
    """The up-masks of the domination order of each family matrix of a
    batch of int rows: x <= y when row y & ~row x is 0."""
    return _up_masks(_packed_leq(rows[:, :, None]))


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg_start(seed: int) -> tuple[int, int]:
    """The PCG64 state of the first draw, and the increment, that
    `np.random.default_rng(seed)` starts from: numpy's SeedSequence pool
    mixing and generate_state(4, uint64), in Python ints."""
    words = [seed >> s & _M32 for s in range(0, seed.bit_length(), 32)]  # none for 0: pads as [0]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # entropy past the pool
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    # uint64 k is halves 2k (low) and 2k+1; the initial state is uint64s
    # 0:1 (high:low) and the sequence 2:3
    u64 = [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _M128
    # set-up: step from 0, add the initial state, step; then the first draw's step
    state = (inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + inc
    return (state * _PCG_MULT + inc) & _M128, inc


def _pcg_jump(steps: int, inc: int) -> tuple[int, int]:
    """(a, c) such that `steps` PCG64 steps map a state s to a*s + c."""
    a, c, mult = 1, 0, _PCG_MULT
    while steps:
        if steps & 1:
            a, c = a * mult & _M128, (c * mult + inc) & _M128
        inc, mult = inc * (mult + 1) & _M128, mult * mult & _M128
        steps >>= 1
    return a, c


def _pcg_advance(hi: np.ndarray, lo: np.ndarray, a: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Lane states hi:lo mapped to a*s + c mod 2^128, the 64x64-bit low
    product built from 32-bit pieces."""
    a_hi, a_lo, c_hi, c_lo = (np.uint64(v) for v in (a >> 64, a & _M64, c >> 64, c & _M64))
    m32, s32 = np.uint64(_M32), np.uint64(32)
    b0, b1 = a_lo & m32, a_lo >> s32
    x0, x1 = lo & m32, lo >> s32
    p01, p10 = x0 * b1, x1 * b0
    mid = (x0 * b0 >> s32) + (p01 & m32) + (p10 & m32)
    new_hi = x1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + hi * a_lo + lo * a_hi + c_hi
    new_lo = lo * a_lo + c_lo
    new_hi += new_lo < c_lo
    return new_hi, new_lo


def _sample_bits(seed: int, count: int, free: int) -> np.ndarray:
    """Exactly `np.random.default_rng(seed).integers(0, 2, size=(count,
    free), dtype=np.uint8)`, without importing numpy.random.

    The stream is O'Neill's PCG64 (XSL-RR 128/64, 2014).  Each 64-bit
    output gives 8 bytes, little-endian, and each bit is `byte >> 7`:
    numpy's buffered Lemire method for uint8 over a range of 2, which never
    rejects.  The 128-bit LCG runs over lanes, one per draw of a batch of
    _BATCH samples (a whole number of draws), and jumps every lane ahead by
    a batch at once, so the working memory is one batch."""
    try:
        out = np.empty((count, free), dtype=np.uint8)
    except (ValueError, MemoryError):  # numpy refuses the shape or the bytes
        raise UsageError(
            f"a sample of {count} matrices with {free} free bits does not fit in memory"
        ) from None
    if not out.size:
        return out
    state, inc = _pcg_start(seed)
    lanes = min(_BATCH * free // 8, -(-count * free // 8))
    hi = np.array([state >> 64], dtype=np.uint64)
    lo = np.array([state & _M64], dtype=np.uint64)
    while len(lo) < lanes:  # lane i holds the state of draw i
        a, c = _pcg_jump(len(lo), inc)
        more = _pcg_advance(hi[: lanes - len(lo)], lo[: lanes - len(lo)], a, c)
        hi, lo = np.concatenate([hi, more[0]]), np.concatenate([lo, more[1]])
    a, c = _pcg_jump(lanes, inc)
    s58, s63 = np.uint64(58), np.uint64(63)
    for start in range(0, count, _BATCH):
        rows = min(_BATCH, count - start)
        xsl, rot = hi ^ lo, hi >> s58
        draws = (xsl >> rot | xsl << (-rot & s63)).astype("<u8", copy=False)
        out[start : start + rows] = draws.view(np.uint8)[: rows * free].reshape(rows, free) >> 7
        hi, lo = _pcg_advance(hi, lo, a, c)
    return out


def _census_labellings(up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relabeling behind the census key of each order of a batch, and
    the key's rows.

    Bit y of up[b, x] says x <= y in order b, and theta = 0 is below every
    element.  New element k of order b is old element p[b, k], and
    p[b, 0] = 0.  Relabeled by p, entry (i, j) of the census table is 0 if
    p_i <= p_j and i otherwise; rows[b, i] is that table's row i with each
    entry written as one bit (1 where it is i), entry 0 the highest.  Rows
    of one n compare, in turn, as the table bytes do, and p makes the table
    lexicographically minimal.

    The search is individualization-refinement (McKay & Piperno, Practical
    graph isomorphism II, 2014) on an ordered partition of the unplaced
    elements, each cell a bitmask: p_k is picked from the first cell, then
    every cell is split into the elements above p_k followed by the others,
    which fixes row k.  Every state whose row k is minimal for its order
    goes on to the next level.  Twins are swapped by an automorphism, so one
    per twin class is tried in a cell.  It runs level by level over the
    whole batch: a state is an order id, its placed prefix and its cells
    (as wide as the most cells any state has), and the states of one order
    sit next to each other, in the order a depth-first search meets them.
    """
    up = np.asarray(up, dtype=np.int32)
    count, n = up.shape
    bit = np.left_shift(1, np.arange(n, dtype=np.int32))
    full = (1 << n) - 1
    pop = np.zeros(1 << n, dtype=np.int32)  # popcount of every mask
    for i in range(n):
        pop[1 << i : 2 << i] = pop[: 1 << i] + 1
    # twins have equal strict up- and down-sets
    strict_up = up ^ bit
    strict_down = bit @ (up[:, :, None] >> np.arange(n, dtype=np.int32) & 1) ^ bit
    twin = strict_up[:, :, None] == strict_up[:, None]
    twin &= strict_down[:, :, None] == strict_down[:, None]
    # x is a candidate in a cell that holds it and none of its lower twins
    mine = twin @ bit & (bit << 1) - 1

    ids = np.arange(count)
    order = ids
    placed = np.zeros((count, n), dtype=np.int32)
    cells = np.full((count, 1), full ^ 1, dtype=np.int32)
    rows = np.zeros((count, n), dtype=np.int32)
    for k in range(1, n):
        state, x = np.nonzero(cells[:, :1] & mine[order] == bit)
        who = order[state]
        below = full ^ up[who, x, None]  # bit y: x is not <= y
        # the row's first k + 1 bits: the placed prefix, then x <= x reads 0
        prefix = (below >> placed[state, :k] & 1) @ bit[k:0:-1]
        # each cell's elements above x come first and read 0
        split = cells[state]
        split[:, 0] ^= bit[x]
        lo = split & below
        after = n - 1 - k - np.cumsum(pop[split], axis=1, dtype=np.int32)
        row = prefix << (n - 1 - k) | ((1 << pop[lo]) - 1 << after).sum(axis=1, dtype=np.int32)
        rows[:, k] = np.minimum.reduceat(row, np.searchsorted(who, ids))
        win = row == rows[who, k]
        order, lo = who[win], lo[win]
        placed = placed[state[win]]
        placed[:, k] = x[win]
        # the split cells, empty ones dropped, compacted to the left
        halves = np.concatenate(((split[win] ^ lo)[:, :, None], lo[:, :, None]), axis=2)
        halves = halves.reshape(len(order), 2 * lo.shape[1])
        live = halves != 0
        slot = np.cumsum(live, axis=1) - 1
        cells = np.zeros((len(order), slot[:, -1].max(initial=0) + 1), dtype=np.int32)
        cells[np.nonzero(live)[0], slot[live]] = halves[live]
    return placed[np.searchsorted(order, ids)], rows


def _up_masks(leq: np.ndarray) -> np.ndarray:
    """Bit y of mask x says x <= y, for an order or a batch of them."""
    return leq @ np.left_shift(1, np.arange(leq.shape[-1], dtype=np.int32))


def _groups(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of the 2-D array `a`: the first index of each group, the
    groups in lexicographic order of their rows, and each row's group."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(a), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _usable_cpus() -> int:
    """The CPUs this process may run on, so `taskset` narrows them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _keyed(up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_census_labellings` of a batch of orders, split into equal
    contiguous chunks of at most _BATCH orders and run on min(chunks,
    usable CPUs) threads, or in this thread when that is 1.  The search
    runs in numpy, which releases the GIL.  The chunks are joined in order,
    so the result is the same for any thread count."""
    chunks = np.array_split(up, max(1, -(-len(up) // _BATCH)))
    workers = min(len(chunks), _usable_cpus())
    if workers == 1:
        out = [_census_labellings(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_census_labellings, chunks))
    return np.concatenate([p for p, _ in out]), np.concatenate([rows for _, rows in out])


def _pair_keys(suffixes: np.ndarray, suffix_class: np.ndarray, upset: np.ndarray) -> np.ndarray:
    """The key rows of each (suffix class, up-set) pair.  Its order on n
    elements is the suffix's canonically labelled order with elements 1..
    renamed 2.., plus a new element 1 above theta alone; bit j of the up-set
    says that 1 is below suffix element j+1."""
    n = suffixes.shape[1] + 1
    up = np.empty((len(upset), n), dtype=np.int32)
    up[:, 0] = (1 << n) - 1
    up[:, 1] = 2 | upset << 2
    up[:, 2:] = suffixes[suffix_class, 1:] << 1
    return _keyed(up)[1]


def _new_tally(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per group: a matrix count of 0 and no minimal position yet."""
    return np.zeros(size, dtype=np.int64), np.full(size, np.iinfo(np.int64).max)


def _tally(counts: np.ndarray, first: np.ndarray, group: np.ndarray, count, pos) -> None:
    """Add `count` matrices at positions `pos` to their groups: counts are
    summed and the minimal position kept."""
    np.add.at(counts, group, count)
    np.minimum.at(first, group, pos)


def _classes(rows: np.ndarray, counts: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix count and minimal global position of each census class,
    in key order, from groups of matrices whose key rows are rows[g]."""
    firsts, group = _groups(rows)
    total, low = _new_tally(len(firsts))
    _tally(total, low, group, counts, first)
    return total, low


def _sampled_classes(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Census classes of the sampled matrices `bits`: one key per distinct
    domination order."""
    up = np.concatenate([
        _domination_up(_family_rows(n, bits[lo : lo + _BATCH])) for lo in range(0, len(bits), _BATCH)
    ])
    distinct, group = _groups(up)
    counts, first = _new_tally(len(distinct))
    _tally(counts, first, group, 1, np.arange(len(bits)))
    return _classes(_keyed(up[distinct])[1], counts, first)


def _suffix_classes(up: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label each distinct suffix order canonically: its labelling p and
    class per order (rows in the order of `up`), and the canonically
    labelled up-masks of one order per class."""
    p, rows = _keyed(up)
    first, suffix_class = _groups(rows)
    # bit j of canonical element i says p_i <= p_j
    reps = p[first]
    above = np.take_along_axis(up[first], reps, axis=1)
    suffixes = _up_masks(above[:, :, None] >> reps[:, None, :] & 1)
    return p, suffix_class, suffixes


def _suffix_blocks(m: int):
    """Every family matrix on m elements as int rows, in index order, one
    _BATCH at a time: (index range, rows)."""
    free = (m - 1) * (m - 2) // 2
    for lo in range(0, 1 << free, _BATCH):
        hi = min(lo + _BATCH, 1 << free)
        yield lo, hi, _family_rows(m, _bits_from_indices(np.arange(lo, hi), free))


def _exhaustive_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Census classes of every matrix, with row 1 factored out.

    Rows 2..n-1 of a family matrix form a family matrix on m = n-1 elements,
    its suffix, and the free bits S of row 1 lead the global index:
    S << free(m) | suffix index.  The order on n elements is the suffix's
    order plus a new element, 1, that is above theta and nothing else and
    whose strict up-set is {j : supp(j) within S}; as ints, suffix rows 1..
    are those supports in S's bit order.  So each distinct suffix order is
    labelled canonically once, every up-set of every suffix is mapped
    through that labelling, a block of rebuilt rows at a time, and only the
    distinct (suffix class, up-set) pairs are keyed (McKay, Isomorph-free
    exhaustive generation, 1998).
    """
    m = n - 1
    free_m = (m - 1) * (m - 2) // 2
    subsets = np.arange(1 << (m - 1), dtype=np.int64)  # every S
    up = np.concatenate([_domination_up(rows) for _, _, rows in _suffix_blocks(m)])
    distinct, order_ids = _groups(up)
    labels, suffix_class, suffixes = _suffix_classes(up[distinct])
    counts, first = _new_tally(len(suffixes) << (m - 1))
    for lo, hi, rows in _suffix_blocks(m):
        ids = order_ids[lo:hi]
        # the supports of canonical elements 1..m-1, in that order
        support = np.take_along_axis(rows[:, 1:], labels[ids, 1:] - 1, axis=1)
        upset = np.zeros((hi - lo, len(subsets)), dtype=np.int64)
        for j in range(m - 1):
            upset |= ((support[:, j, None] & ~subsets) == 0) << j
        pair = suffix_class[ids, None] << (m - 1) | upset
        pos = subsets << free_m | np.arange(lo, hi, dtype=np.int64)[:, None]
        _tally(counts, first, pair.ravel(), 1, pos.ravel())

    present = np.flatnonzero(counts)
    rows = _pair_keys(suffixes, present >> (m - 1), present & (len(subsets) - 1))
    return _classes(rows, counts[present], first[present])


def census(n: int, sample_count: int | None = None, seed: int = 0) -> CensusReport:
    """Partition the all-ones-first upper-triangular matrix family on n
    elements into isomorphism classes of the induced algebras.

    Exhaustive when `sample_count` is None (n <= 8), otherwise a seeded
    uniform sample of free-bit assignments (`seed` >= 0): the bits that
    `np.random.default_rng(seed).integers(0, 2, ...)` draws, computed by
    `_sample_bits` without importing numpy.random.  A matrix is its n rows
    as ints (`_family_rows`) and its order the up-mask rows read off them
    (`_domination_up`).  Classes are grouped and ordered by one key, the
    lexicographically minimal theta-fixing relabeling of their tables
    (`_census_labellings`, an ordered-partition search on bitmasks, run
    level by level over a batch of orders).  The exhaustive census keys
    each distinct order of rows 2..n-1 once and then each distinct (suffix
    class, up-set of row 1) pair, not each matrix (see
    `_exhaustive_classes`); a sample is keyed once per distinct order.  Only
    the keying runs on threads, over chunks of the distinct orders (see
    `_keyed`), so each is keyed once and the report is identical for any
    thread count.
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
        evaluated, mode = total, "exhaustive"
        sizes, positions = _exhaustive_classes(n)
        bits = _bits_from_indices(positions, free)  # free bits by matrix index
    else:
        if n > CENSUS_SAMPLE_MAX_N:
            raise UsageError(f"census is limited to n <= {CENSUS_SAMPLE_MAX_N}")
        if sample_count < 1:
            raise UsageError("sample count must be positive")
        if seed < 0:
            raise UsageError("seed must be non-negative")
        sample_bits = _sample_bits(seed, sample_count, free)
        evaluated, mode = sample_count, "sample"
        sizes, positions = _sampled_classes(n, sample_bits)
        bits = sample_bits[positions]  # free bits by sample position

    strings = row_strings(_bits_from_indices(_family_rows(n, bits).ravel(), n))
    return CensusReport(
        n=n,
        free_bits=free,
        total_matrices=total,
        evaluated=evaluated,
        mode=mode,
        class_count=len(sizes),
        class_sizes=tuple(sizes.tolist()),
        class_representatives=tuple(strings[i : i + n] for i in range(0, len(strings), n)),
        bound_met=len(sizes) >= total,
    )
