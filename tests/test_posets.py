import itertools

import numpy as np
import pytest

from bckcodes import (
    BlockCode,
    bck_order,
    bck_properties,
    hasse_covers,
    verify_axioms,
)
from bckcodes import codegen
from bckcodes.embedding import carrier_rows
from bckcodes.model import Poset, row_strings
from bckcodes.posets import domination_leq, lex_sort_desc_with_perm, star_from_order

from conftest import all_words, loop_leq, star_table
from golden import (
    LOCAL5_CODE,
    LOCAL5_COVERS,
    LOCAL5_ORDER,
    LOCAL5_STAR,
    SEMI4_CODE,
    SEMI4_COVERS,
    SEMI4_STAR,
)

CHAIN3 = [[0, 0, 0], [1, 0, 0], [2, 2, 0]]


def code_leq(*texts) -> np.ndarray:
    return domination_leq(BlockCode.from_strings(texts).matrix)


def poset_table(poset: Poset):
    return star_table(star_from_order(poset.leq))


class TestCompareCodewords:
    """The domination order on codewords, read off `domination_leq`."""

    def test_all_ones_below_everything(self):
        leq = domination_leq(all_words(6))
        ones = len(leq) - 1
        assert leq[ones].all()
        assert np.flatnonzero(leq[:, ones]).tolist() == [ones]

    def test_embedded_row_pair(self):
        # star table has theta at (w2, w8), so w2's word sits below w8's
        assert code_leq("010000011", "000000010").tolist() == [[True, True], [False, True]]

    def test_incomparable(self):
        assert code_leq("0100", "0010").tolist() == [[True, False], [False, True]]

    def test_greater_eq_and_equal(self):
        assert code_leq("0010", "1010").tolist() == [[True, False], [True, True]]
        assert domination_leq(np.array([[0, 1, 1, 0]] * 2)).all()

    @pytest.mark.parametrize("length", range(1, 7))
    def test_partial_order_axioms_exhaustive(self, length):
        rows = all_words(length)
        leq = loop_leq(rows)
        # antisymmetry: mutual domination only on the diagonal
        assert np.array_equal(leq & leq.T, np.eye(len(rows), dtype=bool))
        # transitivity over all triples via boolean reachability
        reach = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        assert not (reach & ~leq).any()
        assert np.array_equal(leq, domination_leq(rows))


class TestDominationLeq:
    @pytest.mark.parametrize("m", [1, 3, 7, 8, 9, 13, 17, 30])
    def test_seeded_codes_against_loop(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            rows = rng.integers(0, 2, size=(int(rng.integers(1, 25)), m), dtype=np.uint8)
            got = domination_leq(rows)
            assert got.dtype == bool
            assert np.array_equal(got, loop_leq(rows))

    def test_batch_of_census_family_matrices(self):
        n = 7
        free = (n - 1) * (n - 2) // 2
        bits = np.random.default_rng(5).integers(0, 2, size=(40, free), dtype=np.uint8)
        mats = codegen._matrices_from_bits(n, bits)
        got = domination_leq(mats)
        assert got.shape == (40, n, n)
        for mat, leq in zip(mats, got):
            assert np.array_equal(leq, loop_leq(mat))


def sorted_strings(code: BlockCode) -> tuple[str, ...]:
    return row_strings(lex_sort_desc_with_perm(code)[0])


class TestLexSortDesc:
    def test_embed9_input(self):
        code = BlockCode.from_strings(["0000", "0001", "0010", "0011"])
        assert sorted_strings(code) == ("0011", "0010", "0001", "0000")

    def test_sorted_input_unchanged(self):
        code = BlockCode.from_strings(LOCAL5_CODE)
        assert sorted_strings(code) == tuple(LOCAL5_CODE)

    def test_singleton(self):
        code = BlockCode.from_strings(["1"])
        assert sorted_strings(code) == ("1",)

    def test_permutation_recorded(self):
        code = BlockCode.from_strings(["0011", "1100", "0110"])
        rows, perm = lex_sort_desc_with_perm(code)
        assert row_strings(rows) == ("1100", "0110", "0011")
        assert perm == (1, 2, 0)
        assert np.array_equal(code.matrix[list(perm)], rows)

    @pytest.mark.parametrize("m", [1, 8, 9, 70])
    def test_matches_sorted_strings(self, m):
        rng = np.random.default_rng(m)
        for _ in range(10):
            rows = np.unique(rng.integers(0, 2, size=(int(rng.integers(1, 40)), m)), axis=0)
            code = BlockCode(rng.permutation(rows))
            strings = code.strings()
            expected = sorted(range(code.size), key=strings.__getitem__, reverse=True)
            assert lex_sort_desc_with_perm(code)[1] == tuple(expected)


class TestCodePoset:
    """The domination order on a code, over the carrier rows that
    `direct_algebra` and `hasse` share."""

    def test_local5(self):
        rows, _ = carrier_rows(BlockCode.from_strings(LOCAL5_CODE))
        leq = domination_leq(rows)
        strict = {(i, j) for i in range(5) for j in range(5) if i != j and leq[i, j]}
        assert strict == LOCAL5_ORDER
        assert leq[0].all()
        assert row_strings(rows) == tuple(LOCAL5_CODE)

    def test_semi4_antichain(self):
        leq = domination_leq(carrier_rows(BlockCode.from_strings(SEMI4_CODE))[0])
        for i, j in itertools.permutations(range(1, 4), 2):
            assert not leq[i, j]

    def test_adjoin_theta(self):
        rows, perm = carrier_rows(BlockCode.from_strings(["01", "10"]))
        assert row_strings(rows) == ("11", "10", "01")
        assert perm == (1, 0)
        leq = domination_leq(rows)
        assert not leq[1, 2] and not leq[2, 1]


class TestPosetToBck:
    """`star_from_order`: theta when x <= y, x otherwise."""

    def test_local5_table(self):
        leq = domination_leq(BlockCode.from_strings(LOCAL5_CODE).matrix)
        assert np.array_equal(star_from_order(leq), LOCAL5_STAR)

    def test_two_chain(self):
        leq = np.array([[True, True], [False, True]])
        assert np.array_equal(star_from_order(leq), [[0, 0], [1, 0]])

    def test_semi4_table(self):
        leq = domination_leq(BlockCode.from_strings(SEMI4_CODE).matrix)
        assert np.array_equal(star_from_order(leq), SEMI4_STAR)


def all_posets_with_least(n):
    """Every poset on n elements with least element 0, by brute force over
    the strict relations on elements 1..n-1."""
    pairs = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    for mask in range(2 ** len(pairs)):
        leq = np.eye(n, dtype=bool)
        leq[0] = True
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                leq[i, j] = True
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            continue
        reach = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        if (reach & ~leq).any():
            continue
        yield Poset(leq=leq)


class TestRelationConstructorProperties:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_posets_yield_positive_implicative_bck(self, n):
        count = 0
        for poset in all_posets_with_least(n):
            table = poset_table(poset)
            assert verify_axioms(table, "bck").passed
            assert bck_properties(table)["positive_implicative"] is None
            count += 1
        assert count >= 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_order_roundtrip(self, n):
        for poset in all_posets_with_least(n):
            assert bck_order(poset_table(poset)) == poset

    @pytest.mark.parametrize("n", range(2, 6))
    def test_noncommutative_iff_nontrivial_relation(self, n):
        for poset in all_posets_with_least(n):
            witnesses = bck_properties(poset_table(poset))
            strict = poset.leq & ~np.eye(n, dtype=bool)
            has_inner_relation = strict[1:, :].any()
            for name in ("commutative", "implicative"):
                assert (witnesses[name] is not None) == has_inner_relation


class TestHasseCovers:
    def test_three_chain(self):
        poset = bck_order(star_table(CHAIN3))
        assert hasse_covers(poset) == [(0, 1), (1, 2)]

    def test_semi4(self):
        poset = bck_order(star_table(SEMI4_STAR))
        assert hasse_covers(poset) == SEMI4_COVERS

    def test_local5_against_brute_reduction(self):
        poset = bck_order(star_table(LOCAL5_STAR))
        # oracle: strict pairs with no strictly-between element
        expected = sorted(
            (x, y)
            for (x, y) in LOCAL5_ORDER
            if not any(
                (x, z) in LOCAL5_ORDER and (z, y) in LOCAL5_ORDER for z in range(5)
            )
        )
        assert expected == LOCAL5_COVERS
        assert hasse_covers(poset) == LOCAL5_COVERS

    @pytest.mark.parametrize("n", range(1, 6))
    def test_transitive_closure_of_covers_rebuilds_leq(self, n):
        for poset in all_posets_with_least(n):
            rebuilt = np.eye(n, dtype=bool)
            for lo, hi in hasse_covers(poset):
                rebuilt[lo, hi] = True
            for k in range(n):
                rebuilt |= np.outer(rebuilt[:, k], rebuilt[k, :])
            assert np.array_equal(rebuilt, poset.leq)
