import numpy as np
import pytest

from bckcodes import (
    BlockCode,
    UsageError,
    bck_properties,
    direct_algebra,
    dualize,
    embed_code,
    extend_matrix,
    tail_set_check,
    verify_axioms,
)

from conftest import random_codes
from golden import (
    EMBED9_CODE,
    EMBED9_DOT,
    EMBED9_LABELS,
    EMBED9_ROWS,
    EMBED9_STAR,
    EMBED9_TAIL_SET,
    EMBED9_TAIL_WITNESS,
    LOCAL5_CODE,
    LOCAL5_DOT,
    LOCAL5_LABELS,
    LOCAL5_STAR,
    SEMI4_CODE,
    SEMI4_DOT,
    SEMI4_LABELS,
    SEMI4_STAR,
)


def row_strings(arr):
    return ["".join(str(b) for b in row) for row in arr.tolist()]


class TestExtendMatrix:
    def test_embed9_rows(self):
        arr = extend_matrix(BlockCode.from_strings(EMBED9_CODE))
        assert arr.dtype == np.uint8 and not arr.flags.writeable
        assert row_strings(arr) == EMBED9_ROWS
        assert arr.shape == (9, 9)  # 4 + 4 + the prepended theta row

    def test_two_word_code_hand_trace(self):
        arr = extend_matrix(BlockCode.from_strings(["10", "01"]))
        assert row_strings(arr) == ["11111", "01010", "00101", "00010", "00001"]
        assert arr.shape == (5, 5)  # 2 + 2 + the prepended theta row

    def test_single_ones_word_no_prepension(self):
        arr = extend_matrix(BlockCode.from_strings(["1"]))
        assert row_strings(arr) == ["11", "01"]
        assert arr.shape == (2, 2)  # n + m: the code row is already all ones

    def test_structure_invariants_random(self):
        for code in random_codes(40, seed=3):
            arr = extend_matrix(code)
            n, m = code.size, code.word_length
            # the first sorted row e_0 + w is all ones only for the code {1...1}
            prepended = not (n == 1 and code.matrix.all())
            assert arr.shape == (n + m + prepended,) * 2
            assert arr[0].all()
            if prepended:
                assert not arr[1:, 0].any()
            assert not np.tril(arr, -1).any()
            assert arr.diagonal().all()
            assert len({tuple(r) for r in arr.tolist()}) == arr.shape[0]
            assert np.array_equal(embed_code(code).matrix, arr)

    def test_code_rows_carry_source_words(self):
        for code in random_codes(40, seed=4):
            arr = extend_matrix(code)
            n, m = code.size, code.word_length
            offset = len(arr) - n - m
            sorted_words = sorted(code.strings(), reverse=True)
            assert row_strings(arr[offset : offset + n, -m:]) == sorted_words


class TestEmbedCode:
    def test_embed9_tables(self):
        emb = embed_code(BlockCode.from_strings(EMBED9_CODE))
        assert np.array_equal(emb.algebra.table, EMBED9_STAR)
        assert np.array_equal(dualize(emb.algebra).table, EMBED9_DOT)
        assert emb.algebra.labels == EMBED9_LABELS
        assert emb.code_row_elements == (1, 2, 3, 4)
        assert emb.tail_elements == (5, 6, 7, 8)

    def test_single_ones_word_gives_two_chain(self):
        emb = embed_code(BlockCode.from_strings(["1"]))
        assert np.array_equal(emb.algebra.table, [[0, 0], [1, 0]])
        assert emb.code_row_elements == (0,)
        assert emb.tail_elements == (1,)

    def test_zero_word_gives_antichain(self):
        emb = embed_code(BlockCode.from_strings(["00"]))
        assert row_strings(emb.matrix) == ["1111", "0100", "0010", "0001"]
        assert np.array_equal(emb.algebra.table, SEMI4_STAR)

    def test_always_valid_and_positive_implicative(self):
        for code in random_codes(30, seed=9):
            emb = embed_code(code)
            assert verify_axioms(emb.algebra, "bck").passed
            assert bck_properties(emb.algebra)["positive_implicative"] is None
            assert verify_axioms(dualize(emb.algebra), "hilbert").passed


class TestDirectAlgebra:
    def test_local5_tables(self):
        emb = direct_algebra(BlockCode.from_strings(LOCAL5_CODE))
        assert np.array_equal(emb.algebra.table, LOCAL5_STAR)
        assert np.array_equal(dualize(emb.algebra).table, LOCAL5_DOT)
        assert emb.algebra.labels == LOCAL5_LABELS
        assert emb.matrix is None
        assert emb.tail_elements == ()

    def test_semi4_tables(self):
        emb = direct_algebra(BlockCode.from_strings(SEMI4_CODE))
        assert np.array_equal(emb.algebra.table, SEMI4_STAR)
        assert np.array_equal(dualize(emb.algebra).table, SEMI4_DOT)
        assert emb.algebra.labels == SEMI4_LABELS

    def test_zero_word_adjoins_theta(self):
        emb = direct_algebra(BlockCode.from_strings(["0"]))
        assert np.array_equal(emb.algebra.table, [[0, 0], [1, 0]])
        assert emb.origins == ("theta", "code_row:0")
        assert emb.code_row_elements == (1,)

    def test_origin_tags(self):
        emb = direct_algebra(BlockCode.from_strings(LOCAL5_CODE))
        assert emb.origins[0] == "theta"
        assert all(tag.startswith("code_row:") for tag in emb.origins[1:])

    def test_unsorted_input_sorted_first(self):
        shuffled = ["00011", "11111", "00001", "01011", "00111"]
        emb = direct_algebra(BlockCode.from_strings(shuffled))
        assert np.array_equal(emb.algebra.table, LOCAL5_STAR)


class TestTailSetCheck:
    def test_embed9_not_a_filter(self):
        emb = embed_code(BlockCode.from_strings(EMBED9_CODE))
        members, ok, witness = tail_set_check(emb)
        assert members == EMBED9_TAIL_SET
        assert not ok
        assert witness == EMBED9_TAIL_WITNESS

    def test_zero_code_is_a_filter(self):
        emb = embed_code(BlockCode.from_strings(["00"]))
        members, ok, witness = tail_set_check(emb)
        assert members == {0, 2, 3}
        assert ok and witness is None

    def test_single_ones_word_whole_carrier(self):
        emb = embed_code(BlockCode.from_strings(["1"]))
        members, ok, _ = tail_set_check(emb)
        assert members == {0, 1}
        assert ok

    def test_direct_mode_rejected(self):
        emb = direct_algebra(BlockCode.from_strings(LOCAL5_CODE))
        with pytest.raises(UsageError):
            tail_set_check(emb)

    def test_verdict_boundary_over_random_suite(self):
        # the tail set is deductively closed exactly when no code row sits
        # below a tail element: either the code is all-zeros, or the single
        # all-ones word is itself the least element of the carrier
        for code in random_codes(60, seed=21):
            emb = embed_code(code)
            _, ok, _ = tail_set_check(emb)
            all_zero = not code.matrix.any()
            ones_carrier = code.size == 1 and code.matrix.all()
            assert ok == (all_zero or ones_carrier)
