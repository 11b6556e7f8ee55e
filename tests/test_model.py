import numpy as np
import pytest

from bckcodes import STAR, BlockCode, OpTable, UsageError
from bckcodes.model import row_strings


class TestBlockCode:
    def test_from_matrix_and_from_strings_agree(self):
        strings = ("110", "011", "000")
        from_matrix = BlockCode(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]]))
        from_strings = BlockCode.from_strings(strings)
        assert from_matrix == from_strings
        assert from_matrix.strings() == from_strings.strings() == strings
        assert from_strings.matrix.dtype == np.uint8
        assert (from_strings.size, from_strings.word_length) == (3, 3)

    def test_strings_round_trip(self):
        rng = np.random.default_rng(8)
        rows = np.unique(rng.integers(0, 2, size=(30, 12)), axis=0)
        code = BlockCode(rng.permutation(rows))
        assert BlockCode.from_strings(code.strings()) == code

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "at least one codeword"),
            ([[]], "positive length"),
            ([[1, 0], [1]], "share one length"),
            ([[0, 2]], "0 or 1"),
            ([[-1, 0]], "0 or 1"),
            ([[0.5, 1]], "0 or 1"),
            ([[0, 1], [0, 1]], "duplicate"),
            ([[0, 1], [1, 1], [1, 0], [1, 1]], "duplicate"),
        ],
    )
    def test_invalid_matrix_rejected(self, rows, message):
        with pytest.raises(UsageError, match=message):
            BlockCode(rows)

    @pytest.mark.parametrize(
        "texts, message",
        [
            ([], "at least one codeword"),
            (["", "1"], "non-empty"),
            (["01", "011"], "share one length"),
            (["0a"], "non-empty over"),
            (["01", "01"], "duplicate"),
        ],
    )
    def test_invalid_strings_rejected(self, texts, message):
        with pytest.raises(UsageError, match=message):
            BlockCode.from_strings(texts)

    def test_matrix_is_read_only(self):
        code = BlockCode.from_strings(["10", "01"])
        with pytest.raises(ValueError):
            code.matrix[0, 0] = 0


@pytest.mark.parametrize(
    "rows",
    [
        np.random.default_rng(3).integers(0, 2, size=(301, 150)) == 1,
        np.random.default_rng(4).integers(0, 2, size=(7, 64)),
        [[1, 0, 1], [0, 0, 0]],
        np.zeros((3, 0), dtype=np.uint8),
        np.zeros((0, 5), dtype=np.uint8),
        [],
    ],
    ids=["bool-301x150", "int-7x64", "lists", "zero-width", "no-rows", "empty"],
)
def test_row_strings_match_joined_digits(rows):
    want = tuple("".join(str(int(b)) for b in row) for row in np.asarray(rows, dtype=np.uint8))
    got = row_strings(rows)
    assert got == want and all(type(s) is str for s in got)


def build(kind, values):
    if kind == "optable":
        return OpTable(table=values, kind=STAR).table
    return BlockCode(values).matrix


INPUTS = {
    "optable": lambda: np.array([[0, 0], [1, 0]], dtype=np.int64),
    "block_code": lambda: np.array([[1, 1], [0, 1]], dtype=np.uint8),
}


@pytest.mark.parametrize("kind", sorted(INPUTS))
class TestStoredArraysAreCopies:
    def test_caller_array_stays_writable(self, kind):
        values = INPUTS[kind]()
        build(kind, values)
        assert values.flags.writeable

    def test_writes_to_the_caller_array_do_not_reach_the_stored_one(self, kind):
        values = INPUTS[kind]()
        stored = build(kind, values)
        before = stored.copy()
        values[1, 0] = values[0, 0]
        assert np.array_equal(stored, before)
        assert not stored.flags.writeable

    def test_writes_to_the_base_do_not_reach_a_view(self, kind):
        base = INPUTS[kind]()
        stored = build(kind, base[:])
        before = stored.copy()
        base[1, 0] = base[0, 0]
        assert np.array_equal(stored, before)
