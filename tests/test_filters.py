from itertools import combinations

import numpy as np
import pytest

from bckcodes import (
    DOT,
    BlockCode,
    OpTable,
    UsageError,
    all_filters,
    classify,
    direct_algebra,
    dualize,
    embed_code,
    generated_filter,
    is_filter,
    maximal_filters,
    parse_algebra_file,
    semisimple_family,
)

from conftest import (
    brute_filters,
    brute_maximal,
    heyting_downsets,
    posets_up_to_iso,
    star_table,
)
from golden import (
    EMBED9_CODE,
    EMBED9_NONCLOSED_WITNESS,
    EMBED9_SIX_SET_CLAIM,
    EMBED9_VERIFIED_MAXIMAL,
    EMBED9_VERIFIED_RADICAL,
    LOCAL5_DOT,
    LOCAL5_FILTERS,
    LOCAL5_MAXIMAL,
    SEMI4_DOT,
    SEMI4_MAXIMAL,
)


def dot_table(rows, labels=None):
    return OpTable(table=np.array(rows, dtype=np.int64), kind=DOT, labels=labels)


@pytest.fixture(scope="module")
def local5():
    return dot_table(LOCAL5_DOT)


@pytest.fixture(scope="module")
def semi4():
    return dot_table(SEMI4_DOT)


@pytest.fixture(scope="module")
def embed9_dot():
    return dualize(embed_code(BlockCode.from_strings(EMBED9_CODE)).algebra)


class TestIsFilter:
    def test_local5_theta_a(self, local5):
        ok, witness = is_filter(local5, {0, 1})
        assert ok and witness is None

    def test_local5_theta_c_fails(self, local5):
        ok, witness = is_filter(local5, {0, 3})
        assert not ok
        assert witness == (3, 1)  # c.a lands inside, a stays outside

    def test_empty_set(self, local5):
        ok, witness = is_filter(local5, set())
        assert not ok and witness is None

    def test_star_table_rejected(self):
        with pytest.raises(UsageError):
            is_filter(star_table([[0, 0], [1, 0]]), {0})

    def test_out_of_range_element(self, local5):
        with pytest.raises(UsageError):
            is_filter(local5, {0, 9})


class TestGeneratedFilter:
    def test_seed_c_closes_to_l4(self, local5):
        assert generated_filter(local5, {3}) == {0, 1, 2, 3}

    def test_empty_seed(self, local5):
        assert generated_filter(local5, set()) == {0}

    def test_seed_d_gives_carrier(self, local5):
        assert generated_filter(local5, {4}) == {0, 1, 2, 3, 4}

    def test_output_is_filter_and_minimal(self, local5, semi4, embed9_dot):
        for h in (local5, semi4, embed9_dot):
            filters = all_filters(h)
            for seed_elem in range(h.n):
                gen = generated_filter(h, {seed_elem})
                assert is_filter(h, gen)[0]
                for f in filters:
                    if seed_elem in f:
                        assert gen <= f


class TestAllFilters:
    def test_local5_exactly_six(self, local5):
        assert all_filters(local5) == LOCAL5_FILTERS

    def test_one_element(self):
        assert all_filters(dot_table([[0]])) == [frozenset({0})]

    def test_semi4_all_theta_subsets(self, semi4):
        found = all_filters(semi4)
        assert len(found) == 8
        assert sorted(found, key=lambda s: (len(s), sum(1 << i for i in s))) == found
        assert set(found) == set(brute_filters(SEMI4_DOT))

    def test_matches_subset_oracle(self, local5, embed9_dot):
        for h in (local5, embed9_dot):
            assert set(f for f in all_filters(h)) == set(
                brute_filters(np.asarray(h.table))
            )

    def test_closed_under_intersection(self, local5, embed9_dot):
        for h in (local5, embed9_dot):
            found = set(f for f in all_filters(h))
            for f1 in found:
                for f2 in found:
                    assert f1 & f2 in found


class TestMaximalFilters:
    def test_local5(self, local5):
        assert maximal_filters(local5) == LOCAL5_MAXIMAL

    def test_semi4(self, semi4):
        assert maximal_filters(semi4) == SEMI4_MAXIMAL

    def test_embed9_brute_verified_list(self, embed9_dot):
        found = maximal_filters(embed9_dot)
        assert sorted(found, key=sorted) == sorted(EMBED9_VERIFIED_MAXIMAL, key=sorted)
        assert found == maximal_filters(embed9_dot)
        assert set(found) == set(brute_maximal(np.asarray(embed9_dot.table)))

    def test_embed9_six_set_claim_contains_a_non_filter(self, embed9_dot):
        """The six-set list recorded with the 9-element example over-counts:
        its last set drops an element that sits strictly below a retained
        one, so deductive closure fails.  Five of the six check out."""
        verdicts = [is_filter(embed9_dot, s) for s in EMBED9_SIX_SET_CLAIM]
        assert [ok for ok, _ in verdicts] == [True, True, True, True, True, False]
        assert verdicts[-1][1] == EMBED9_NONCLOSED_WITNESS

    def test_definitional_cross_check(self, local5, semi4, embed9_dot):
        for h in (local5, semi4, embed9_dot):
            filters = all_filters(h)
            carrier = frozenset(range(h.n))
            proper = [f for f in filters if f != carrier]
            expected = [
                f for f in proper if not any(f < g for g in proper)
            ]
            assert sorted(expected, key=sorted) == sorted(
                (f for f in maximal_filters(h)), key=sorted
            )

    def test_one_element_empty(self):
        assert maximal_filters(dot_table([[0]])) == []


class TestEnumerationWarning:
    def test_large_carrier_warns_on_stderr(self, capsys):
        # 17-element chain: cheap to enumerate but past the warning size
        n = 17
        table = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i > j:
                    table[i, j] = i
        found = all_filters(dot_table(table.T.copy()))
        # the filters of a chain are its prefixes
        assert len(found) == n
        assert "may be slow" in capsys.readouterr().err


class TestClassify:
    def test_embed9(self, embed9_dot):
        report = classify(embed9_dot)
        assert not report.is_semisimple
        assert not report.is_local
        assert report.radical == EMBED9_VERIFIED_RADICAL

    def test_local5(self, local5):
        report = classify(local5)
        assert report.is_local and not report.is_semisimple
        assert list(report.maximal_filters) == LOCAL5_MAXIMAL

    def test_semi4(self, semi4):
        report = classify(semi4)
        assert report.is_semisimple and not report.is_local
        assert report.radical == frozenset({0})

    def test_star_input_auto_dualized(self):
        report = classify(star_table(np.asarray(LOCAL5_DOT).T.copy()))
        assert report.is_local

    def test_degenerate(self):
        report = classify(dot_table([[0]]))
        assert report.degenerate
        assert report.all_filter_count == 1
        assert report.maximal_filters == ()
        assert report.radical == frozenset({0})

    def test_verdicts_recomputable(self, local5, semi4, embed9_dot):
        for h in (local5, semi4, embed9_dot):
            report = classify(h)
            assert report.is_local == (len(report.maximal_filters) == 1)
            radical = frozenset(range(h.n))
            for f in report.maximal_filters:
                radical &= f
            assert radical == report.radical
            assert report.is_semisimple == (radical == frozenset({0}))
            assert 0 in report.radical

    @pytest.mark.parametrize("k", [*range(1, 10), 15])
    def test_antichain_structure(self, k):
        # theta plus a k-antichain: 2^k filters, k maximal, radical {theta}
        report = classify(direct_algebra(semisimple_family(k + 1)).algebra)
        assert report.all_filter_count == 2**k
        assert len(report.maximal_filters) == k
        assert report.radical == frozenset({0})
        if k >= 2:
            assert report.is_semisimple


def _bitmask_order(s: frozenset) -> tuple[int, int]:
    return len(s), sum(1 << i for i in s)


class TestHeytingDownsets:
    """Hilbert algebras that no poset induces: Heyting implication on the
    down-sets of one poset per isomorphism class on 1..4 points.  theta, the
    whole poset, is the last down-set; the `theta` header of the algebra
    file renumbers it to element 0, and the brute-force oracles run on the
    table as built and are mapped through the same renumbering."""

    @staticmethod
    def algebras(k: int):
        """(algebra with theta at 0, table as built, index of theta)."""
        for leq in posets_up_to_iso(k):
            table, theta = heyting_downsets(leq)
            text = f"kind dot\nn {len(table)}\ntheta {theta}\n"
            text += "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
            yield parse_algebra_file(text), table, theta

    @staticmethod
    def renumbered(sets, theta: int) -> list[frozenset]:
        """Member sets of the built table in the parsed algebra's indices:
        theta becomes 0 and every index below it moves up by one."""
        return [frozenset(0 if x == theta else x + (x < theta) for x in f) for f in sets]

    @pytest.mark.parametrize("k", range(1, 5))
    def test_filters_and_classification_match_brute_force(self, k):
        not_induced = 0
        for h, table, theta in self.algebras(k):
            t = np.asarray(h.table)
            not_induced += bool(((t != 0) & (t != np.arange(h.n))).any())
            want = sorted(self.renumbered(brute_filters(table, theta), theta), key=_bitmask_order)
            want_maximal = set(self.renumbered(brute_maximal(table, theta), theta))
            assert all_filters(h) == want
            assert maximal_filters(h) == [f for f in want if f in want_maximal]
            report = classify(h)
            assert report.all_filter_count == len(want)
            assert set(report.maximal_filters) == want_maximal
            radical = frozenset(range(h.n)).intersection(*want_maximal)
            assert report.radical == radical
            assert report.is_semisimple == (radical == {0})
            assert report.is_local == (len(want_maximal) == 1)
        assert not_induced > 0 or k == 1

    @pytest.mark.parametrize("k", range(1, 5))
    def test_generated_filter_is_least_filter_containing_seed(self, k):
        rng = np.random.default_rng(k)
        for h, table, theta in self.algebras(k):
            filters = self.renumbered(brute_filters(table, theta), theta)
            seeds = [frozenset(c) for r in (0, 1, 2) for c in combinations(range(h.n), r)]
            seeds += [
                frozenset(int(i) for i in rng.choice(h.n, size=size, replace=False))
                for size in range(3, h.n + 1)
            ]
            for seed in seeds:
                least = frozenset(range(h.n)).intersection(*(f for f in filters if seed <= f))
                assert generated_filter(h, seed) == least, (h.table, seed)
