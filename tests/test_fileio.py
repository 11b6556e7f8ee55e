import numpy as np
import pytest

from bckcodes import (
    DOT,
    STAR,
    FormatError,
    parse_algebra_file,
    parse_code_file,
    serialize_algebra,
    serialize_code,
    verify_axioms,
)
from bckcodes.fileio import sniff_format

from conftest import fixture_text
from golden import EMBED9_STAR, LOCAL5_STAR, SEMI4_CODE, SEMI4_DOT


class TestCodeFiles:
    def test_semi4_fixture(self):
        code = parse_code_file(fixture_text("semisimple4.code"))
        assert code.strings() == tuple(SEMI4_CODE)

    def test_comments_and_blanks_ignored(self):
        code = parse_code_file("# c\n\n11\n01")
        assert code.strings() == ("11", "01")

    def test_inline_comment(self):
        code = parse_code_file("11  # the all-ones word\n01")
        assert code.strings() == ("11", "01")

    def test_ragged_lengths_rejected_with_line(self):
        with pytest.raises(FormatError) as err:
            parse_code_file("11\n111")
        assert err.value.line == 2

    def test_bad_characters_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_code_file("11\n1x")
        assert err.value.line == 2

    def test_duplicates_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_code_file("11\n01\n11")
        assert err.value.line == 3

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            parse_code_file("# nothing here\n")

    def test_roundtrip_on_fixtures(self):
        for name in ("embed9.code", "local5.code", "semisimple4.code"):
            text = fixture_text(name)
            code = parse_code_file(text)
            assert parse_code_file(serialize_code(code)) == code


class TestAlgebraFiles:
    def test_local5_star_fixture_parses_and_verifies(self):
        t = parse_algebra_file(fixture_text("local5_star.alg"))
        assert t.kind == STAR
        assert np.array_equal(t.table, LOCAL5_STAR)
        assert verify_axioms(t, "bck") == ()

    def test_semi4_dot_fixture(self):
        t = parse_algebra_file(fixture_text("semisimple4_dot.alg"))
        assert t.kind == DOT
        assert np.array_equal(t.table, SEMI4_DOT)
        assert verify_axioms(t, "hilbert") == ()

    def test_embed9_fixture(self):
        t = parse_algebra_file(fixture_text("embed9_star.alg"))
        assert np.array_equal(t.table, EMBED9_STAR)
        assert t.labels == ("θ", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9")

    def test_out_of_range_entry(self):
        text = "kind star\nn 5\ntheta 0\n" + "\n".join("0 0 0 0 0" for _ in range(4)) + "\n0 0 0 0 7\n"
        with pytest.raises(FormatError) as err:
            parse_algebra_file(text)
        assert "7" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_algebra_file("n 2\ntheta 0\n0 0\n1 0")

    def test_wrong_row_count(self):
        with pytest.raises(FormatError):
            parse_algebra_file("kind star\nn 3\ntheta 0\n0 0 0\n1 0 0")

    def test_theta_renumbering(self):
        # same 2-chain but stored with theta at index 1
        text = "kind star\nn 2\ntheta 1\nlabels a θ\n1 0\n1 1\n"
        t = parse_algebra_file(text)
        assert np.array_equal(t.table, [[0, 0], [1, 0]])
        assert t.labels == ("θ", "a")
        assert verify_axioms(t, "bck") == ()

    def test_theta_renumbering_matches_plain_relabeling(self):
        # a 6-element chain, theta lowest, stored with theta at index 3
        n, theta = 6, 3
        chain = [theta, *np.random.default_rng(6).permutation([0, 1, 2, 4, 5]).tolist()]
        rank = {x: r for r, x in enumerate(chain)}
        table = [[theta if rank[x] <= rank[y] else x for y in range(n)] for x in range(n)]
        labels = [f"e{x}" for x in range(n)]
        text = f"kind star\nn {n}\ntheta {theta}\nlabels {' '.join(labels)}\n"
        text += "".join(" ".join(map(str, row)) + "\n" for row in table)
        t = parse_algebra_file(text)
        order = [theta] + [x for x in range(n) if x != theta]
        new_of = {old: new for new, old in enumerate(order)}
        want = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                want[new_of[a]][new_of[b]] = new_of[table[a][b]]
        assert t.table.tolist() == want
        assert t.labels == tuple(labels[x] for x in order)
        assert verify_axioms(t, "bck") == ()

    def test_roundtrip_on_fixtures(self):
        for name in (
            "embed9_star.alg",
            "embed9_dot.alg",
            "local5_star.alg",
            "local5_dot.alg",
            "semisimple4_star.alg",
            "semisimple4_dot.alg",
        ):
            text = fixture_text(name)
            t = parse_algebra_file(text)
            assert serialize_algebra(t) == text
            assert parse_algebra_file(serialize_algebra(t)) == t


class TestSniff:
    def test_algebra_detected(self):
        assert sniff_format("kind star\nn 2\n") == "algebra"

    def test_code_detected(self):
        assert sniff_format("# words\n0101\n") == "code"
