"""Recovering codes from algebras via cut rows, the semisimple/local code
families, and the isomorphism census with its matrix-count bound: exhaustive
up to n = 8 by factoring row 1 out of the enumeration, sampled above."""
from __future__ import annotations

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
from .posets import domination_leq, star_from_order

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


def _census_labelling(leq: np.ndarray) -> np.ndarray:
    """The relabeling behind `_census_form`: new element k is old element
    p[k], and p[0] = 0.

    Relabeled by p, entry (i, j) of the census table is 0 if p_i <= p_j and
    i otherwise.  The search is individualization-refinement (McKay &
    Piperno, Practical graph isomorphism II, 2014) on an ordered partition
    of the unplaced elements: p_k is picked from the first cell, then every
    cell is split into the elements above p_k followed by the others, which
    fixes row k.  Every state whose row k is minimal goes on to the next
    level.  Twins (equal strict up- and down-sets) are swapped by an
    automorphism, so one per twin class is tried in a cell.
    """
    n = len(leq)
    weights = 1 << np.arange(n, dtype=np.int64)
    up = (leq @ weights).tolist()
    down = (leq.T @ weights).tolist()
    twin = [(up[x] & ~(1 << x), down[x] & ~(1 << x)) for x in range(n)]
    states = [((0,), [list(range(1, n))])]
    for _ in range(1, n):
        best, kept = None, []
        for placed, (first, *rest) in states:
            tried = set()
            for x in first:
                if twin[x] in tried:
                    continue
                tried.add(twin[x])
                above = up[x]
                order = (*placed, x)
                # 1 where row k holds 0: the most leading 1s is the minimal row
                row = [above >> y & 1 for y in order]
                cells = []
                for cell in ([y for y in first if y != x], *rest):
                    hi = [y for y in cell if above >> y & 1]
                    lo = [y for y in cell if not above >> y & 1]
                    cells += [c for c in (hi, lo) if c]
                    row += [1] * len(hi) + [0] * len(lo)
                if best is None or row > best:
                    best, kept = row, []
                if row == best:
                    kept.append((order, cells))
        states = kept
    return np.array(states[0][0])


def _census_form(leq: np.ndarray) -> bytes:
    """Canonical key of the census algebra on the order `leq` (theta = 0,
    x * y = 0 if x <= y else x): its lexicographically minimal row-major
    table over the relabelings that keep theta at 0."""
    p = _census_labelling(leq)
    return star_from_order(leq[p][:, p]).astype(np.uint8).tobytes()


def _order_ids(mats: np.ndarray, orders: dict[bytes, int]) -> np.ndarray:
    """The id of each matrix's domination order in `orders` (bit-packed
    order -> id, numbered as first seen), adding the orders not yet there."""
    n = mats.shape[-1]
    packed = np.packbits(domination_leq(mats).reshape(len(mats), n * n), axis=1)
    uniq, inverse = np.unique(packed, axis=0, return_inverse=True)
    ids = [orders.setdefault(row.tobytes(), len(orders)) for row in uniq]
    return np.array(ids, dtype=np.int64)[inverse.ravel()]


def _unpack_order(order: bytes, n: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(order, dtype=np.uint8), count=n * n)
    return bits.reshape(n, n).astype(bool)


def _new_tally(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per group: a matrix count of 0 and no minimal position yet."""
    return np.zeros(size, dtype=np.int64), np.full(size, np.iinfo(np.int64).max)


def _tally(counts: np.ndarray, first: np.ndarray, group: np.ndarray, count, pos) -> None:
    """Add `count` matrices at positions `pos` to their groups: counts are
    summed and the minimal position kept."""
    np.add.at(counts, group, count)
    np.minimum.at(first, group, pos)


def _classes(forms: list[bytes], counts: np.ndarray, first: np.ndarray) -> dict[bytes, list[int]]:
    """Map canonical key -> [matrix count, minimal global position], from
    groups of matrices whose key is forms[g]."""
    index: dict[bytes, int] = {}
    key = np.array([index.setdefault(f, len(index)) for f in forms], dtype=np.int64)
    total, low = _new_tally(len(index))
    _tally(total, low, key, counts, first)
    return {f: [c, p] for f, c, p in zip(index, total.tolist(), low.tolist())}


def _sampled_worker(payload) -> dict[bytes, list[int]]:
    """Census classes of the sampled matrices `bits`, the first at global
    position `start`: one key per distinct domination order."""
    n, start, bits = payload
    orders: dict[bytes, int] = {}
    ids = np.concatenate([
        _order_ids(_matrices_from_bits(n, bits[lo : lo + _BATCH]), orders)
        for lo in range(0, len(bits), _BATCH)
    ])
    counts, first = _new_tally(len(orders))
    _tally(counts, first, ids, 1, np.arange(start, start + len(bits)))
    return _classes([_census_form(_unpack_order(o, n)) for o in orders], counts, first)


def _exhaustive_worker(payload) -> dict[bytes, list[int]]:
    """Census classes of every matrix whose suffix index lies in [start,
    stop), with row 1 factored out.

    Rows 2..n-1 of a family matrix form a family matrix on m = n-1 elements,
    its suffix, and the free bits S of row 1 lead the global index:
    S << free(m) | suffix index.  The order on n elements is the suffix's
    order plus a new element, 1, that is above theta and nothing else and
    whose strict up-set is {j : supp(j) within S}.  So each distinct suffix order
    is labelled canonically once, every up-set of every suffix is mapped
    through that labelling, and only the distinct (suffix class, up-set)
    pairs are keyed (McKay, Isomorph-free exhaustive generation, 1998).
    """
    n, start, stop = payload
    m = n - 1
    free_m = (m - 1) * (m - 2) // 2
    subsets = np.arange(1 << (m - 1), dtype=np.int64)  # every S
    # suffix column j >= 1 is matrix column j+1, bit m-1-j of S
    column_bits = 1 << np.arange(m - 2, -1, -1, dtype=np.int64)
    orders: dict[bytes, int] = {}
    blocks = []
    for lo in range(start, stop, _BATCH):
        hi = min(lo + _BATCH, stop)
        bits = _bits_from_indices(np.arange(lo, hi, dtype=np.uint64), free_m)
        mats = _matrices_from_bits(m, bits)
        blocks.append((lo, hi, _order_ids(mats, orders), mats[:, 1:, 1:] @ column_bits))

    canonical: dict[bytes, int] = {}
    suffix_orders = []  # one canonically labelled order per suffix class
    suffix_class = np.empty(len(orders), dtype=np.int64)
    labels = np.empty((len(orders), m), dtype=np.int64)
    for u, order in enumerate(orders):
        leq = _unpack_order(order, m)
        p = labels[u] = _census_labelling(leq)
        leq = leq[p][:, p]
        if leq.tobytes() not in canonical:
            canonical[leq.tobytes()] = len(suffix_orders)
            suffix_orders.append(leq)
        suffix_class[u] = canonical[leq.tobytes()]

    counts, first = _new_tally(len(suffix_orders) << (m - 1))
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
    rest = np.r_[0, 2:n]
    forms = []
    for c, upset in zip((present >> (m - 1)).tolist(), (present & (len(subsets) - 1)).tolist()):
        leq = np.zeros((n, n), dtype=bool)
        leq[np.ix_(rest, rest)] = suffix_orders[c]
        leq[:2, 1] = True
        leq[1, 2:] = upset >> np.arange(m - 1) & 1
        forms.append(_census_form(leq))
    return _classes(forms, counts[present], first[present])


def _merge(into: dict[bytes, list[int]], other: dict[bytes, list[int]]) -> None:
    for key, (count, pos) in other.items():
        entry = into.get(key)
        if entry is None:
            into[key] = [count, pos]
        else:
            entry[0] += count
            entry[1] = min(entry[1], pos)


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
    theta-fixing relabeling of their tables (`_census_form`, found by an
    ordered-partition search), so the report is identical for any worker
    count.  The exhaustive census keys each distinct order of rows 2..n-1
    once and then each distinct (suffix class, up-set of row 1) pair, not
    each matrix (see `_exhaustive_worker`); workers split the suffixes.
    A sample is keyed once per distinct order, and workers split the
    sample.  Workers are capped by the usable CPUs and the matrix count.
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
        worker, units = _exhaustive_worker, total >> (n - 2)  # the suffixes
    else:
        worker, units = _sampled_worker, evaluated
    bounds = np.linspace(0, units, workers + 1, dtype=np.int64).tolist()
    payloads = [
        (n, start, stop) if sample_bits is None else (n, start, sample_bits[start:stop])
        for start, stop in zip(bounds, bounds[1:])
    ]
    if workers == 1:
        classes = worker(payloads[0])
    else:
        classes = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(worker, payloads):
                _merge(classes, result)

    ordered = sorted(classes.items())
    sizes = tuple(count for _, (count, _) in ordered)
    reps = []
    for _, (_, pos) in ordered:
        if sample_bits is None:
            bits = _bits_from_indices(np.array([pos], dtype=np.uint64), free)
        else:
            bits = sample_bits[pos : pos + 1]
        reps.append(row_strings(_matrices_from_bits(n, bits)[0]))
    return CensusReport(
        n=n,
        free_bits=free,
        total_matrices=total,
        evaluated=evaluated,
        mode=mode,
        class_count=len(ordered),
        class_sizes=sizes,
        class_representatives=tuple(reps),
        bound=total,
        bound_met=len(ordered) >= total,
    )
