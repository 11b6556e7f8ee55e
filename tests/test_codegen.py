import collections
import concurrent.futures
import functools
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from bckcodes import codegen
from bckcodes.posets import domination_leq
from bckcodes import (
    BlockCode,
    CensusReport,
    UsageError,
    are_isomorphic,
    census,
    classify,
    cut_code,
    direct_algebra,
    dualize,
    embed_code,
    local_family,
    local_family_free_bit_count,
    roundtrip_check,
    semisimple_family,
)

from conftest import posets_up_to_iso, random_codes, star_table
from golden import EMBED9_CODE, LOCAL5_CODE, LOCAL5_FREE_BITS, SEMI4_CODE


@pytest.fixture(scope="module")
def embed9():
    return embed_code(BlockCode.from_strings(EMBED9_CODE))


class TestCutCode:
    def test_embed9_recovers_initial_code(self, embed9):
        result = cut_code(embed9.algebra, (1, 2, 3, 4), (5, 6, 7, 8))
        assert list(result.words) == ["0011", "0010", "0001", "0000"]
        assert result.collisions == ()

    def test_theta_row_is_all_ones(self, embed9):
        result = cut_code(embed9.algebra, (0,), (1, 2, 3, 4))
        assert list(result.words) == ["1111"]

    def test_theta_column(self, embed9):
        result = cut_code(embed9.algebra, range(9), (0,))
        assert list(result.words) == ["1"] + ["0"] * 8
        # duplicates deduplicated, with collision positions reported
        assert result.code.strings() == ("1", "0")
        assert result.collisions == tuple((1, k) for k in range(2, 9))

    def test_out_of_range_spec(self, embed9):
        with pytest.raises(UsageError, match=r"^cut spec element 99 out of range \[0, 9\)$"):
            cut_code(embed9.algebra, (99,), (0,))

    @pytest.mark.parametrize("rows, cols", [((), (0,)), ((1,), ())])
    def test_empty_spec(self, embed9, rows, cols):
        with pytest.raises(UsageError, match="^cut spec needs at least one row and one column element$"):
            cut_code(embed9.algebra, rows, cols)

    def test_checks_in_order(self, embed9):
        # an empty spec is reported before the table kind, and the kind and
        # the axioms before an out-of-range index
        with pytest.raises(UsageError, match="^cut spec needs"):
            cut_code(dualize(embed9.algebra), (), (0,))
        with pytest.raises(UsageError, match="^cut rows are read off a star table$"):
            cut_code(dualize(embed9.algebra), (99,), (0,))
        with pytest.raises(UsageError, match="^table is not a BCK-algebra"):
            cut_code(star_table([[0, 0], [1, 1]]), (99,), (0,))

    def test_against_plain_loop_with_repeats(self):
        rng = np.random.default_rng(17)
        collided = 0
        for code in random_codes(30, seed=8):
            alg = embed_code(code).algebra
            rows = tuple(int(v) for v in rng.integers(0, alg.n, size=int(rng.integers(1, 2 * alg.n))))
            cols = tuple(int(v) for v in rng.integers(0, alg.n, size=int(rng.integers(1, alg.n + 1))))
            result = cut_code(alg, rows, cols)
            words = ["".join("1" if alg.table[r][x] == 0 else "0" for x in cols) for r in rows]
            first, collisions = {}, []
            for pos, word in enumerate(words):
                if word in first:
                    collisions.append((first[word], pos))
                else:
                    first[word] = pos
            assert list(result.words) == words
            assert result.collisions == tuple(collisions)
            assert result.code.strings() == tuple(first)
            collided += bool(collisions)
        assert collided > 10


class TestRoundtrip:
    def test_embed9(self):
        report = roundtrip_check(BlockCode.from_strings(EMBED9_CODE))
        assert report.ok
        assert list(report.recovered) == ["0011", "0010", "0001", "0000"]

    def test_single_ones_word(self):
        report = roundtrip_check(BlockCode.from_strings(["1"]))
        assert report.ok
        assert list(report.recovered) == ["1"]

    def test_random_suite(self):
        for code in random_codes(200, seed=42):
            report = roundtrip_check(code)
            assert report.ok, f"roundtrip failed for {code.strings()}"


class TestFamilies:
    def test_semisimple_n4_is_the_worked_example(self):
        assert semisimple_family(4).strings() == tuple(SEMI4_CODE)

    def test_semisimple_n2(self):
        assert semisimple_family(2).strings() == ("11", "01")

    def test_semisimple_n5(self):
        assert semisimple_family(5).strings() == (
            "11111", "01000", "00100", "00010", "00001",
        )

    def test_semisimple_rejects_small_n(self):
        with pytest.raises(UsageError):
            semisimple_family(1)

    def test_local_n5_worked_example_bits(self):
        assert local_family(5, LOCAL5_FREE_BITS).strings() == tuple(LOCAL5_CODE)

    def test_local_n2_no_free_bits(self):
        assert local_family(2).strings() == ("11", "01")

    def test_local_n4_all_ones_is_chain(self):
        code = local_family(4, "1")
        assert code.strings() == ("1111", "0111", "0011", "0001")
        report = classify(direct_algebra(code).algebra)
        assert report.is_local

    def test_local_bit_count_validation(self):
        assert local_family_free_bit_count(5) == 3
        with pytest.raises(UsageError):
            local_family(5, "01")
        with pytest.raises(UsageError):
            local_family(5, "012")

    @pytest.mark.parametrize("n", range(3, 11))
    def test_semisimple_classification(self, n):
        report = classify(direct_algebra(semisimple_family(n)).algebra)
        assert report.is_semisimple
        assert len(report.maximal_filters) == n - 1
        assert all(len(f) == n - 1 for f in report.maximal_filters)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_local_classification_exhaustive(self, n):
        width = local_family_free_bit_count(n)
        carrier_minus_last = frozenset(range(n - 1))
        for mask in range(2**width):
            bits = format(mask, f"0{width}b") if width else ""
            report = classify(direct_algebra(local_family(n, bits)).algebra)
            assert report.is_local
            assert report.maximal_filters[0] == carrier_minus_last

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 16])
    def test_local_classification_sampled(self, n):
        rng = np.random.default_rng(100 + n)
        width = local_family_free_bit_count(n)
        carrier_minus_last = frozenset(range(n - 1))
        zero = "0" * width
        samples = [zero] + [
            "".join(str(int(b)) for b in rng.integers(0, 2, size=width)) for _ in range(25)
        ]
        for bits in samples:
            report = classify(direct_algebra(local_family(n, bits)).algebra)
            assert report.is_local
            assert report.maximal_filters[0] == carrier_minus_last
            if bits == zero:
                # the middle n-2 words form an antichain: theta with any
                # subset of it is a filter, and the carrier is one more
                assert report.all_filter_count == 2 ** (n - 2) + 1


class TestCensus:
    @pytest.mark.parametrize(
        "n,expected_classes,expected_total,met",
        [(3, 2, 2, True), (4, 5, 8, False), (5, 16, 64, False)],
    )
    def test_small_counts(self, n, expected_classes, expected_total, met):
        report = census(n)
        assert report.total_matrices == expected_total
        assert report.class_count == expected_classes
        assert report.bound_met is met
        assert sum(report.class_sizes) == report.evaluated == expected_total
        assert report.free_bits == (n - 1) * (n - 2) // 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_class_count_matches_poset_oracle(self, n):
        assert census(n).class_count == len(posets_up_to_iso(n - 1))

    def test_n3_classes_are_chain_and_antichain(self):
        report = census(3)
        algebras = [
            direct_algebra(BlockCode.from_strings(rep)).algebra
            for rep in report.class_representatives
        ]
        tables = sorted(tuple(a.table.flatten()) for a in algebras)
        chain = (0, 0, 0, 1, 0, 0, 2, 2, 0)
        antichain = (0, 0, 0, 1, 0, 1, 2, 2, 0)
        assert tables == sorted([chain, antichain])

    def test_n4_partition_against_pairwise_isomorphism(self):
        report = census(4)
        algebras = []
        for mask in range(8):
            bits = format(mask, "03b")
            # build the matrix directly: row 1 = all ones, free bits row-major
            mat = np.eye(4, dtype=np.uint8)
            mat[0, :] = 1
            mat[1, 2], mat[1, 3], mat[2, 3] = (int(b) for b in bits)
            code = BlockCode.from_strings(["".join(str(v) for v in row) for row in mat])
            algebras.append(direct_algebra(code).algebra)
        # partition the eight algebras by pairwise isomorphism
        classes = []
        for alg in algebras:
            for cls in classes:
                if are_isomorphic(cls[0], alg) is not None:
                    cls.append(alg)
                    break
            else:
                classes.append([alg])
        assert len(classes) == report.class_count == 5
        assert sorted(len(c) for c in classes) == sorted(report.class_sizes)

    def test_class_representatives_pairwise_non_isomorphic(self):
        report = census(5)
        algebras = [
            direct_algebra(BlockCode.from_strings(rep)).algebra
            for rep in report.class_representatives
        ]
        for a, b in itertools.combinations(algebras, 2):
            assert are_isomorphic(a, b) is None

    def test_worker_counts_agree(self, monkeypatch):
        lone = census(5)
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 8)
        assert census(5) == lone

    def test_n6_workers_and_oracle(self, monkeypatch):
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 1)
        lone = census(6)
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 4)
        assert census(6) == lone
        assert sum(lone.class_sizes) == 1024

    def test_n7_exhaustive_within_budget(self):
        import time

        start = time.perf_counter()
        report = census(7)
        elapsed = time.perf_counter() - start
        assert sum(report.class_sizes) == report.total_matrices == 32768
        assert report.class_count == len(set(report.class_representatives))
        assert elapsed < 120, f"census n=7 took {elapsed:.1f}s"

    def test_sample_mode_deterministic(self):
        a = census(8, sample_count=40, seed=7)
        b = census(8, sample_count=40, seed=7)
        assert a == b
        assert a.mode == "sample"
        assert a.evaluated == 40
        assert sum(a.class_sizes) == 40

    def test_sample_mode_different_seed_may_differ(self):
        a = census(8, sample_count=10, seed=1)
        assert a.total_matrices == 2**21
        assert a.class_count <= 10

    def test_exhaustive_limit(self):
        with pytest.raises(UsageError):
            census(9)
        report = _exhaustive_census(8)
        assert report.class_count == 2045
        assert sum(report.class_sizes) == report.total_matrices == 2**21

    def test_n8_workers_agree(self, monkeypatch):
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 2)
        assert census(8) == _exhaustive_census(8)

    def test_sample_limit(self):
        with pytest.raises(UsageError):
            census(17, sample_count=5)
        report = census(16, sample_count=20, seed=3)
        assert report.evaluated == sum(report.class_sizes) == 20
        assert report.free_bits == 15 * 14 // 2

    def test_n2_degenerate_family(self):
        report = census(2)
        assert report.class_count == 1
        assert report.total_matrices == 1
        assert report.bound_met

    def test_representative_matrices_regenerate_classes(self):
        report = census(4)
        for rep in report.class_representatives:
            mat = np.array([[int(c) for c in row] for row in rep], dtype=np.uint8)
            assert mat[0].all()
            assert mat.diagonal().all()
            assert not np.tril(mat, -1).any()


def _family_table(n: int, mask: int) -> np.ndarray:
    """Star table of the family matrix whose free bits are `mask`, built
    through `direct_algebra` rather than the census internals."""
    width = (n - 1) * (n - 2) // 2
    mat = np.eye(n, dtype=np.uint8)
    mat[0, :] = 1
    cells = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]
    for (i, j), b in zip(cells, format(mask, f"0{width}b") if width else ""):
        mat[i, j] = int(b)
    code = BlockCode.from_strings(["".join(str(v) for v in row) for row in mat])
    return direct_algebra(code).algebra.table


def _relabel(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The table with element x renamed p[x]."""
    out = np.empty_like(table)
    out[p[:, None], p[None, :]] = p[table]
    return out


def _family_matrices(n: int) -> np.ndarray:
    """Every matrix of the n-element family, in index order: row 0 all
    ones, unit diagonal, and the free bits of index k read row-major from
    its most significant bit."""
    width = (n - 1) * (n - 2) // 2
    masks = np.arange(2**width)
    mats = np.zeros((len(masks), n, n), dtype=bool)
    mats[:, np.arange(n), np.arange(n)] = True
    mats[:, 0, :] = True
    cells = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]
    for b, (i, j) in enumerate(cells):
        mats[:, i, j] = masks >> (width - 1 - b) & 1
    return mats


@functools.lru_cache(maxsize=None)
def _family_orders(n: int) -> np.ndarray:
    """Every distinct order of the n-element family: x <= y when the
    support of matrix row y lies inside that of row x."""
    mats = _family_matrices(n)
    leq = ~(mats[:, None, :, :] & ~mats[:, :, None, :]).any(axis=3)
    # bit-packed rows sort as the boolean ones do, and unique faster
    _, first = np.unique(np.packbits(leq.reshape(len(leq), -1), axis=1), axis=0, return_index=True)
    return leq[first]


@functools.lru_cache(maxsize=None)
def _exhaustive_census(n: int) -> CensusReport:
    return census(n)


@functools.lru_cache(maxsize=None)
def _matrix_keys(n: int) -> tuple[tuple[bytes, ...], int]:
    """Oracle keys: for each family matrix in index order, the census table
    of its domination order relabelled by that order's `_census_labellings`
    labelling p, as bytes; and the number of distinct labelled orders.  The
    distinct orders are labelled in one batch."""
    mats = _family_matrices(n)
    leq = domination_leq(mats).reshape(len(mats), n * n)
    orders, inverse = np.unique(leq, axis=0, return_inverse=True)
    orders = orders.reshape(-1, n, n)
    p = codegen._census_labellings(codegen._up_masks(orders))[0]
    keys = [table.tobytes() for table in _relabelled(orders, p)]
    return tuple(keys[u] for u in inverse.ravel().tolist()), len(orders)


def _keyed_report(n: int, indices, mode: str) -> CensusReport:
    """Oracle: the census of the family matrices at `indices`, grouped by
    `_matrix_keys`.  A class's size is the number of its entries, its
    representative the matrix at its first entry, and classes are listed in
    the order of their table bytes, not of the key rows `census` sorts by."""
    keys = _matrix_keys(n)[0]
    classes: dict[bytes, list[int]] = {}
    for index in indices:
        classes.setdefault(keys[index], [0, index])[0] += 1
    ordered = [classes[key] for key in sorted(classes)]
    mats = _family_matrices(n)
    reps = tuple(tuple("".join(str(int(b)) for b in row) for row in mats[i]) for _, i in ordered)
    total = len(mats)
    return CensusReport(
        n=n,
        free_bits=(n - 1) * (n - 2) // 2,
        total_matrices=total,
        evaluated=len(indices),
        mode=mode,
        class_count=len(ordered),
        class_sizes=tuple(size for size, _ in ordered),
        class_representatives=reps,
        bound_met=len(ordered) >= total,
    )


class TestCensusOracle:
    """The factored census against keying every matrix's order."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_equals_per_matrix_census(self, n):
        assert _exhaustive_census(n) == _keyed_report(n, range(len(_matrix_keys(n)[0])), "exhaustive")

    @pytest.mark.parametrize("n,count", [(3, 2), (4, 7), (5, 40), (6, 357), (7, 4824)])
    def test_distinct_labelled_orders_are_a006455(self, n, count):
        # naturally labelled posets on n-1 points
        assert _matrix_keys(n)[1] == count

    @pytest.mark.parametrize("n,count", [(3, 2), (4, 5), (5, 16), (6, 63), (7, 318), (8, 2045)])
    def test_class_counts_are_a000112(self, n, count):
        # unlabelled posets on n-1 points
        assert _exhaustive_census(n).class_count == count


def _induced(leq: np.ndarray) -> np.ndarray:
    """The census table of an order, or of each of a batch: x * y = 0 if
    x <= y else x."""
    return np.where(leq, 0, np.arange(leq.shape[-1])[:, None])


def _relabelled(leq: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The census table of each order of a batch relabelled by its row of
    p: new element k is old element p[b, k]."""
    b = np.arange(len(leq))[:, None, None]
    return _induced(leq[b, p[:, :, None], p[:, None, :]]).astype(np.uint8)


def _table_rows(tables: np.ndarray) -> np.ndarray:
    """The key rows that census tables stand for: row i's entries as bits,
    1 where nonzero, entry 0 the highest."""
    n = tables.shape[-1]
    return (tables != 0) @ np.left_shift(1, np.arange(n - 1, -1, -1))


def _poset_leq(n: int, covers) -> np.ndarray:
    """Theta = 0 below elements 1..n-1, ordered by the closure of `covers`."""
    leq = np.eye(n, dtype=bool)
    leq[0] = True
    for x, y in covers:
        leq[x, y] = True
    for k in range(n):
        leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
    return leq


@functools.lru_cache(maxsize=2)
def _theta_fixing_relabelings(n: int):
    """The (n-1)! relabelings that keep 0 in place, for one flat gather:
    the old cell read at each new cell, the row offsets n * k, and old
    label -> new label shifted by those offsets."""
    olds = np.array([(0, *rest) for rest in itertools.permutations(range(1, n))], dtype=np.int64)
    olds = olds.reshape(-1, n)
    cells = (olds[:, :, None] * n + olds[:, None, :]).reshape(len(olds), n * n)
    offsets = n * np.arange(len(olds))[:, None]
    return cells, offsets, (np.argsort(olds, axis=1) + offsets).ravel()


def _brute_lexmin(table: np.ndarray) -> bytes:
    """Oracle: the lexicographically minimal row-major table over all
    (n-1)! relabelings that keep theta = 0 in place."""
    cells, offsets, new_of = _theta_fixing_relabelings(len(table))
    flat = new_of[np.ravel(table)[cells] + offsets] - offsets
    return flat[np.lexsort(flat.T[::-1])[0]].astype(np.uint8).tobytes()


class TestCensusForm:
    """The ordered-partition search against the brute-force lexmin over
    every theta-fixing relabeling."""

    @staticmethod
    def check(tables, seed: int) -> None:
        """Label the orders of `tables` and a random theta-fixing relabeling
        of each in one batch: each table relabelled by its p is the
        brute-force lexmin, the key rows stand for that table, and the
        relabeled copy gets the same rows and the same table."""
        rng = np.random.default_rng(seed)
        leq = np.array([t == 0 for t in tables])
        n = leq.shape[1]
        assert np.array_equal(np.array(tables), _induced(leq))
        moved = [_relabel(t, np.concatenate(([0], 1 + rng.permutation(n - 1)))) == 0 for t in tables]
        leq = np.concatenate((leq, moved))
        p, rows = codegen._census_labellings(codegen._up_masks(leq))
        assert (p[:, 0] == 0).all() and (np.sort(p, axis=1) == np.arange(n)).all()
        lexmin = _relabelled(leq, p)
        assert np.array_equal(_table_rows(lexmin), rows)
        half = len(tables)
        for t, table, key, moved_table, moved_key in zip(tables, lexmin, rows, lexmin[half:], rows[half:]):
            assert table.tobytes() == _brute_lexmin(t), t
            assert np.array_equal(moved_key, key), t
            assert np.array_equal(moved_table, table), t

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_distinct_family_order(self, n):
        self.check([_induced(leq) for leq in _family_orders(n)], seed=n)

    @pytest.mark.parametrize("n,count", [(7, 40), (8, 15), (9, 15)])
    def test_seeded_random_family_tables(self, n, count):
        rng = np.random.default_rng(1000 + n)
        width = (n - 1) * (n - 2) // 2
        masks = rng.integers(0, 2**width, size=count)
        self.check([_family_table(n, int(m)) for m in masks], seed=n)

    @pytest.mark.parametrize(
        "covers",
        [
            [(k, k + 1) for k in range(1, 8)],  # chain
            [],  # antichain
            [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)],  # two 4-chains
            [(1, 2), (3, 4), (5, 6), (7, 8)],  # four 2-chains
            [(a, 5 + (a - 1 + d) % 4) for a in range(1, 5) for d in (0, 1)],  # 8-crown
        ],
        ids=["chain", "antichain", "two-4-chains", "four-2-chains", "crown"],
    )
    def test_symmetric_posets_on_eight_elements(self, covers):
        self.check([_induced(_poset_leq(9, covers))], seed=len(covers))


_TWIN_HEAVY_9 = {
    "chain": [(k, k + 1) for k in range(1, 8)],
    "antichain": [],
    "crown": [(a, 5 + (a - 1 + d) % 4) for a in range(1, 5) for d in (0, 1)],
    "two-4-chains": [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)],
}


class TestCensusKeys:
    """The batched census key: the relabeling and key rows of each order, a
    batch against its orders keyed one at a time, and the (suffix, up-set)
    pair orders built with shifts."""

    @pytest.mark.parametrize("covers", list(_TWIN_HEAVY_9.values()), ids=list(_TWIN_HEAVY_9))
    def test_twin_heavy_labelling_against_brute_force(self, covers):
        leq = _poset_leq(9, covers)
        want = _brute_lexmin(_induced(leq))
        p, rows = codegen._census_labellings(codegen._up_masks(leq)[None])
        p = p[0].tolist()
        assert np.array_equal(rows[0], _table_rows(np.frombuffer(want, np.uint8).reshape(9, 9)))
        assert p[0] == 0 and sorted(p) == list(range(9))
        assert _induced(leq[np.ix_(p, p)]).astype(np.uint8).tobytes() == want

    def test_shuffled_batch_of_every_7_element_order_keys_as_each_alone(self):
        # states of one order must not meet another order's minimum
        up = codegen._up_masks(_family_orders(7))
        assert len(up) == 4824
        shuffle = np.random.default_rng(7).permutation(len(up))
        p, rows = codegen._census_labellings(up[shuffle])
        # every order gets the same labelling between other neighbours
        in_order = codegen._census_labellings(up)
        assert np.array_equal(in_order[0][shuffle], p)
        assert np.array_equal(in_order[1][shuffle], rows)
        for i in np.random.default_rng(8).choice(len(up), size=300, replace=False).tolist():
            one = up[shuffle[i]]
            alone_p, alone_rows = codegen._census_labellings(one[None])
            assert np.array_equal(alone_p[0], p[i]), one
            assert np.array_equal(alone_rows[0], rows[i]), one

    @pytest.mark.parametrize("n", [12, 16])
    def test_sampled_orders_past_the_brute_force(self, n):
        """Where `census --sample` runs but (n-1)! relabelings are out of
        reach: a theta-fixing relabeling of an order gets its key rows, each
        order relabelled by its p has the key rows as its table's rows, and
        a shuffled batch keys each order as it is keyed alone."""
        rng = np.random.default_rng(n)
        free = (n - 1) * (n - 2) // 2
        up = codegen._domination_up(codegen._family_rows(n, codegen._sample_bits(n, 40, free)))
        leq = (up[:, :, None] >> np.arange(n) & 1).astype(bool)
        moved = []
        for order in leq:
            q = np.r_[0, 1 + rng.permutation(n - 1)]
            moved.append(order[np.ix_(q, q)])
        leq = np.concatenate((leq, moved))
        p, rows = codegen._census_labellings(codegen._up_masks(leq))
        assert (p[:, 0] == 0).all() and (np.sort(p, axis=1) == np.arange(n)).all()
        assert np.array_equal(_table_rows(_relabelled(leq, p)), rows)
        assert np.array_equal(rows[40:], rows[:40])
        shuffle = rng.permutation(len(leq))
        shuffled = codegen._census_labellings(codegen._up_masks(leq[shuffle]))
        for i, j in enumerate(shuffle.tolist()):
            alone = codegen._census_labellings(codegen._up_masks(leq[j])[None])
            assert np.array_equal(alone[0][0], p[j]) and np.array_equal(alone[1][0], rows[j]), j
            assert np.array_equal(shuffled[0][i], p[j]) and np.array_equal(shuffled[1][i], rows[j]), j

    def test_twin_heavy_batch_mixed_with_random_orders_against_brute_force(self):
        rng = np.random.default_rng(9)
        tables = [_induced(_poset_leq(9, covers)) for covers in _TWIN_HEAVY_9.values()]
        tables += [_family_table(9, int(m)) for m in rng.integers(0, 2**28, size=8)]
        tables = [tables[i] for i in rng.permutation(len(tables))]
        leq = np.array([t == 0 for t in tables])
        p, rows = codegen._census_labellings(codegen._up_masks(leq))
        for order, labels, key in zip(leq, p.tolist(), rows):
            want = _brute_lexmin(_induced(order))
            assert np.array_equal(key, _table_rows(np.frombuffer(want, np.uint8).reshape(9, 9)))
            assert _induced(order[np.ix_(labels, labels)]).astype(np.uint8).tobytes() == want

    def test_every_n8_pair_order_keys_as_built_with_numpy(self, monkeypatch):
        seen = []
        pair_keys = codegen._pair_keys

        def recording(suffixes, suffix_class, upset):
            rows = pair_keys(suffixes, suffix_class, upset)
            seen.extend(zip(suffixes[suffix_class].tolist(), upset.tolist(), rows))
            return rows

        monkeypatch.setattr(codegen, "_pair_keys", recording)
        census(8)
        assert len(seen) == 5439
        rest = np.r_[0, 2:8]
        leq = np.zeros((len(seen), 8, 8), dtype=bool)
        for order, (suffix, upset, _) in zip(leq, seen):
            order[np.ix_(rest, rest)] = np.array(suffix)[:, None] >> np.arange(7) & 1
            order[:2, 1] = True
            order[1, 2:] = upset >> np.arange(6) & 1
        rows = codegen._census_labellings(codegen._up_masks(leq))[1]
        for (suffix, upset, key), want in zip(seen, rows):
            assert np.array_equal(key, want), (suffix, upset)


class TestConstructionMemory:
    @pytest.mark.parametrize("build", [embed_code, roundtrip_check])
    def test_n201_stays_under_4mb(self, build):
        # one (n, n, n) domination tensor alone is 8 MB at n = 201
        rng = np.random.default_rng(100)
        words = set()
        while len(words) < 100:
            words.add("".join(str(int(b)) for b in rng.integers(0, 2, size=100)))
        code = BlockCode.from_strings(sorted(words))
        assert embed_code(code).algebra.n == 201
        tracemalloc.start()
        try:
            build(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestCensusMemory:
    def test_exhaustive_n8_stays_under_32mb(self):
        # one int64 array over all 2^21 (suffix, row-1 choice) pairs is 16 MB
        tracemalloc.start()
        try:
            census(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak

    def test_sampled_n10_stays_under_16mb(self):
        # a brute-force key over all 9! relabelings at n=10 peaks above 600 MB
        tracemalloc.start()
        try:
            census(10, sample_count=1, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestSampleBits:
    """The sample stream against its oracle, numpy.random itself."""

    @staticmethod
    def oracle(seed, count, free):
        return np.random.default_rng(seed).integers(0, 2, size=(count, free), dtype=np.uint8)

    # 2**160 has six 32-bit words, more than the 4-word pool
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 5, 10**30, 2**160])
    @pytest.mark.parametrize(
        "shape",
        [(3, 0), (1, 1), (4, 3), (10, 28), (5000, 15), (777, 105), (2 * codegen._BATCH + 1, 3)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_edge_seeds_and_shapes(self, seed, shape):
        assert codegen._BATCH < 5000
        got = codegen._sample_bits(seed, *shape)
        want = self.oracle(seed, *shape)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)

    def test_seeded_random_cases(self):
        rng = np.random.default_rng(18)
        for _ in range(320):
            seed = int.from_bytes(rng.bytes(int(rng.integers(1, 25))), "little")
            count, free = int(rng.integers(1, 600)), int(rng.integers(0, 121))
            want = self.oracle(seed, count, free)
            assert np.array_equal(codegen._sample_bits(seed, count, free), want), (seed, count, free)

    def test_memory_is_the_output_and_one_batch(self):
        tracemalloc.start()
        try:
            out = codegen._sample_bits(5, 150000, 105)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes, peak


class TestCensusJobs:
    """The keying threads: `_keyed` splits the distinct orders into equal
    chunks of at most _BATCH and starts min(chunks, usable CPUs) threads
    when both exceed 1; the report is the same for any count."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace ThreadPoolExecutor by a stand-in that records the worker
        count asked for and maps in this thread."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        return started

    def test_threads_clamped_to_usable_cpus_and_chunks(self, pools, monkeypatch):
        # 8,193 orders make three chunks of 2,731
        bits = codegen._bits_from_indices(np.arange(2 * codegen._BATCH + 1), 21)
        up = codegen._domination_up(codegen._family_rows(8, bits))
        sizes = []
        labellings = codegen._census_labellings

        def counting(chunk):
            sizes.append(len(chunk))
            return labellings(chunk)

        monkeypatch.setattr(codegen, "_census_labellings", counting)
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 1)
        lone = codegen._keyed(up)
        assert pools == []
        for cpus in (2, 3, 4):
            monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
            keyed = codegen._keyed(up)
            assert all(np.array_equal(a, b) for a, b in zip(keyed, lone))
        assert pools == [2, 3, 3]
        assert sizes == [2731] * 12

    def test_one_usable_worker_runs_inline(self, pools, monkeypatch):
        """Two chunks on one usable CPU run in this thread, and so does the
        one chunk of a small census on any CPU count."""
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 1)
        census(12, sample_count=5000, seed=2)
        assert pools == []
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 3)
        census(5)
        census(7)
        census(9, sample_count=10, seed=1)
        assert pools == []

    def test_sampled_split_matches_inline(self, pools, monkeypatch):
        # 5,000 distinct orders: two chunks of 2,500
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 1)
        lone = census(12, sample_count=5000, seed=2)
        assert pools == []
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: 4)
        assert census(12, sample_count=5000, seed=2) == lone
        assert pools == [2]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_sample_across_batches_equals_per_sample_oracle(self, pools, monkeypatch, cpus):
        # 5,000 samples take two batches of order ids, which share one dedup
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
        assert codegen._BATCH < 5000
        bits = np.random.default_rng(11).integers(0, 2, size=(5000, 15), dtype=np.uint8)
        indices = (bits @ np.left_shift(1, np.arange(14, -1, -1))).tolist()
        assert census(7, sample_count=5000, seed=11) == _keyed_report(7, indices, "sample")
        assert pools == []  # at most 4,824 distinct orders at n = 7: one chunk

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_distinct_order_keyed_once_for_any_jobs(self, pools, monkeypatch, cpus):
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
        sizes = collections.Counter()
        labellings = codegen._census_labellings

        def counting(up):
            sizes[up.shape[1]] += len(up)
            return labellings(up)

        monkeypatch.setattr(codegen, "_census_labellings", counting)
        assert census(8) == _exhaustive_census(8)
        # 4,824 distinct suffix orders, then 5,439 (suffix class, up-set) pairs
        assert sizes == {7: 4824, 8: 5439}
        assert pools == ([] if cpus == 1 else [2, 2])

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert codegen._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert codegen._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert codegen._usable_cpus() == 1
