"""Recovering codes from algebras via cut rows, the semisimple/local code
families, and the exhaustive isomorphism census with its matrix-count bound."""
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
    CutSpec,
    OpTable,
    RoundtripReport,
    row_strings,
)
from .posets import domination_leq, star_from_order

CENSUS_EXHAUSTIVE_MAX_N = 7
CENSUS_SAMPLE_MAX_N = 16
_BATCH = 4096


def _cut_words(alg: OpTable, rows, cols) -> tuple[str, ...]:
    """Bit (r, x) is 1 exactly when r * x is theta."""
    return row_strings(alg.table[np.ix_(rows, cols)] == alg.theta)


def cut_code(alg: OpTable, spec: CutSpec) -> CutResult:
    """One codeword per row element: the bit at column element x is 1 exactly
    when row * x is theta.  Duplicate words are kept in the raw list and
    deduplicated (first occurrence wins) when packaging the block code."""
    if alg.kind != STAR:
        raise UsageError("cut rows are read off a star table")
    require_axioms(alg, "bck")
    spec.validate_against(alg.n)
    words = _cut_words(alg, spec.row_elements, spec.col_elements)
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


def _census_form(leq: np.ndarray) -> bytes:
    """Canonical key of the census algebra on the order `leq` (theta = 0,
    x * y = 0 if x <= y else x): its lexicographically minimal row-major
    table over the relabelings that keep theta at 0.

    Relabeled by p, entry (i, j) is 0 if p_i <= p_j and i otherwise.  The
    search is individualization-refinement (McKay & Piperno, Practical
    graph isomorphism II, 2014) on an ordered partition of the unplaced
    elements: p_k is picked from the first cell, then every cell is split
    into the elements above p_k followed by the others, which fixes row k.
    Every state whose row k is minimal goes on to the next level.  Twins
    (equal strict up- and down-sets) are swapped by an automorphism, so one
    per twin class is tried in a cell.
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
    p = np.array(states[0][0])
    return star_from_order(leq[p][:, p]).astype(np.uint8).tobytes()


def _census_batch(
    n: int, bits: np.ndarray, offset: int, forms: dict[bytes, bytes]
) -> dict[bytes, list[int]]:
    """Map canonical key -> [matrix count, minimal global position].

    `forms` caches bit-packed domination order -> canonical key across
    batches.
    """
    mats = _matrices_from_bits(n, bits)
    leq = domination_leq(mats)
    packed = np.packbits(leq.reshape(len(mats), n * n), axis=1)
    uniq, inverse = np.unique(packed, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    counts = np.bincount(inverse, minlength=len(uniq))
    first_pos = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_pos, inverse, np.arange(offset, offset + len(mats), dtype=np.int64))
    classes: dict[bytes, list[int]] = {}
    for u in range(len(uniq)):
        order = uniq[u].tobytes()
        form = forms.get(order)
        if form is None:
            leq_u = np.unpackbits(uniq[u], count=n * n).reshape(n, n).astype(bool)
            form = forms[order] = _census_form(leq_u)
        _merge(classes, {form: [int(counts[u]), int(first_pos[u])]})
    return classes


def _merge(into: dict[bytes, list[int]], other: dict[bytes, list[int]]) -> None:
    for key, (count, pos) in other.items():
        entry = into.get(key)
        if entry is None:
            into[key] = [count, pos]
        else:
            entry[0] += count
            entry[1] = min(entry[1], pos)


def _census_worker(payload) -> dict[bytes, list[int]]:
    n, start, stop, width, sample_bits = payload
    classes: dict[bytes, list[int]] = {}
    forms: dict[bytes, bytes] = {}
    pos = start
    while pos < stop:
        hi = min(pos + _BATCH, stop)
        if sample_bits is None:
            bits = _bits_from_indices(np.arange(pos, hi, dtype=np.uint64), width)
        else:
            bits = sample_bits[pos - start : hi - start]
        _merge(classes, _census_batch(n, bits, pos, forms))
        pos = hi
    return classes


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def census(n: int, sample_count: int | None = None, seed: int = 0, jobs: int = 1) -> CensusReport:
    """Partition the all-ones-first upper-triangular matrix family on n
    elements into isomorphism classes of the induced algebras.

    Exhaustive when `sample_count` is None (n <= 7), otherwise a seeded
    uniform sample of free-bit assignments (`seed` >= 0).  Classes are
    grouped and ordered by one key, the lexicographically minimal
    theta-fixing relabeling of their tables (`_census_form`, found by an
    ordered-partition search), so the report is identical for any worker
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
    classes: dict[bytes, list[int]] = {}
    if workers == 1:
        _merge(classes, _census_worker((n, 0, evaluated, free, sample_bits)))
    else:
        bounds = np.linspace(0, evaluated, workers + 1, dtype=np.int64)
        payloads = []
        for k in range(workers):
            start, stop = int(bounds[k]), int(bounds[k + 1])
            chunk = None if sample_bits is None else sample_bits[start:stop]
            payloads.append((n, start, stop, free, chunk))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_census_worker, payloads):
                _merge(classes, result)

    ordered = sorted(classes.items())
    sizes = tuple(count for _, (count, _) in ordered)
    reps = []
    for _, (_, pos) in ordered:
        if sample_bits is None:
            bits = _bits_from_indices(np.array([pos], dtype=np.uint64), free)
        else:
            bits = sample_bits[pos : pos + 1]
        mat = _matrices_from_bits(n, bits)[0]
        reps.append(tuple("".join(str(int(v)) for v in row) for row in mat))
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
