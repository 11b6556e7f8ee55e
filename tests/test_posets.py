import itertools

import numpy as np
import pytest

from bckcodes import (
    BlockCode,
    Codeword,
    Comparison,
    UsageError,
    bck_order,
    bck_properties,
    code_poset,
    compare_codewords,
    hasse_covers,
    lex_sort_desc,
    poset_to_bck,
    verify_axioms,
)
from bckcodes import codegen
from bckcodes.model import Poset
from bckcodes.posets import domination_leq, lex_sort_desc_with_perm

from conftest import star_table
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


def w(text):
    return Codeword.from_string(text)


class TestCompareCodewords:
    def test_all_ones_below_everything(self):
        ones = Codeword.ones(6)
        for bits in itertools.product((0, 1), repeat=6):
            word = Codeword(bits)
            expected = Comparison.EQUAL if word == ones else Comparison.LESS_EQ
            assert compare_codewords(ones, word) is expected

    def test_embedded_row_pair(self):
        # star table has theta at (w2, w8), so w2's word sits below w8's
        assert compare_codewords(w("010000011"), w("000000010")) is Comparison.LESS_EQ

    def test_incomparable(self):
        assert compare_codewords(w("0100"), w("0010")) is Comparison.INCOMPARABLE

    def test_greater_eq_and_equal(self):
        assert compare_codewords(w("0010"), w("1010")) is Comparison.GREATER_EQ
        assert compare_codewords(w("0110"), w("0110")) is Comparison.EQUAL

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            compare_codewords(w("01"), w("011"))

    @pytest.mark.parametrize("length", range(1, 7))
    def test_partial_order_axioms_exhaustive(self, length):
        words = [Codeword(bits) for bits in itertools.product((0, 1), repeat=length)]
        k = len(words)
        leq = np.zeros((k, k), dtype=bool)
        for i in range(k):
            for j in range(k):
                cmp = compare_codewords(words[i], words[j])
                leq[i, j] = cmp in (Comparison.LESS_EQ, Comparison.EQUAL)
        # antisymmetry: LESS_EQ and GREATER_EQ together only when EQUAL
        both = leq & leq.T
        assert np.array_equal(both, np.eye(k, dtype=bool))
        # transitivity over all triples via boolean reachability
        reach = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        assert not (reach & ~leq).any()
        # agreement with the vectorized matrix construction
        rows = np.array([word.bits for word in words], dtype=np.uint8)
        assert np.array_equal(leq, domination_leq(rows))


def loop_leq(rows) -> np.ndarray:
    """Oracle: leq[i, j] is all(r[j] <= r[i]) over the bit positions."""
    rows = rows.tolist()
    return np.array([[all(b <= a for a, b in zip(ri, rj)) for rj in rows] for ri in rows], dtype=bool)


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


class TestLexSortDesc:
    def test_embed9_input(self):
        code = BlockCode.from_strings(["0000", "0001", "0010", "0011"])
        assert lex_sort_desc(code).strings() == ("0011", "0010", "0001", "0000")

    def test_sorted_input_unchanged(self):
        code = BlockCode.from_strings(LOCAL5_CODE)
        assert lex_sort_desc(code).strings() == tuple(LOCAL5_CODE)

    def test_singleton(self):
        code = BlockCode.from_strings(["1"])
        assert lex_sort_desc(code).strings() == ("1",)

    def test_permutation_recorded(self):
        code = BlockCode.from_strings(["0011", "1100", "0110"])
        sorted_code, perm = lex_sort_desc_with_perm(code)
        assert sorted_code.strings() == ("1100", "0110", "0011")
        assert perm == (1, 2, 0)
        assert tuple(code.words[i] for i in perm) == sorted_code.words


class TestCodePoset:
    def test_local5(self):
        poset = code_poset(BlockCode.from_strings(LOCAL5_CODE), adjoin_theta=False)
        strict = {(i, j) for i in range(5) for j in range(5) if i != j and poset.leq[i, j]}
        assert strict == LOCAL5_ORDER
        assert poset.least == 0
        assert poset.labels == tuple(LOCAL5_CODE)

    def test_semi4_antichain(self):
        poset = code_poset(BlockCode.from_strings(SEMI4_CODE), adjoin_theta=False)
        for i, j in itertools.permutations(range(1, 4), 2):
            assert not poset.leq[i, j]

    def test_adjoin_theta(self):
        poset = code_poset(BlockCode.from_strings(["01", "10"]), adjoin_theta=True)
        assert poset.n == 3
        assert poset.labels[0] == "11"
        assert not poset.leq[1, 2] and not poset.leq[2, 1]

    def test_missing_theta_rejected(self):
        with pytest.raises(UsageError):
            code_poset(BlockCode.from_strings(["01", "10"]), adjoin_theta=False)


class TestPosetToBck:
    def test_local5_table(self):
        poset = code_poset(BlockCode.from_strings(LOCAL5_CODE), adjoin_theta=False)
        assert np.array_equal(poset_to_bck(poset).table, LOCAL5_STAR)

    def test_two_chain(self):
        poset = Poset(leq=np.array([[True, True], [False, True]]), least=0)
        assert np.array_equal(poset_to_bck(poset).table, [[0, 0], [1, 0]])

    def test_semi4_table(self):
        poset = code_poset(BlockCode.from_strings(SEMI4_CODE), adjoin_theta=False)
        assert np.array_equal(poset_to_bck(poset).table, SEMI4_STAR)

    def test_missing_least_rejected(self):
        poset = Poset(leq=np.eye(2, dtype=bool))
        with pytest.raises(UsageError):
            poset_to_bck(poset)


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
        yield Poset(leq=leq, least=0)


class TestRelationConstructorProperties:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_posets_yield_positive_implicative_bck(self, n):
        count = 0
        for poset in all_posets_with_least(n):
            table = poset_to_bck(poset)
            assert verify_axioms(table, "bck").passed
            assert bck_properties(table).positive_implicative
            count += 1
        assert count >= 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_order_roundtrip(self, n):
        for poset in all_posets_with_least(n):
            assert bck_order(poset_to_bck(poset)) == poset

    @pytest.mark.parametrize("n", range(2, 6))
    def test_noncommutative_iff_nontrivial_relation(self, n):
        for poset in all_posets_with_least(n):
            flags = bck_properties(poset_to_bck(poset))
            strict = poset.leq & ~np.eye(n, dtype=bool)
            has_inner_relation = strict[1:, :].any()
            if has_inner_relation:
                assert not flags.commutative and not flags.implicative
            else:
                assert flags.commutative and flags.implicative


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
