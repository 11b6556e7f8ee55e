import functools
import operator
import random
from itertools import combinations

import numpy as np
import pytest

from bckcodes import (
    DOT,
    STAR,
    BlockCode,
    OpTable,
    UsageError,
    all_filters,
    bck_order,
    classify,
    direct_algebra,
    dualize,
    embed_code,
    generated_filter,
    is_filter,
    local_family,
    local_family_free_bit_count,
    maximal_filters,
    parse_algebra_file,
    semisimple_family,
    serialize_algebra,
)
from bckcodes import filters as F
from bckcodes.algebra import require_axioms
from bckcodes.cli import run_command

from conftest import (
    FIXTURES,
    brute_filters,
    brute_maximal,
    filter_witness,
    heyting_downsets,
    labeled_posets,
    posets_up_to_iso,
    random_codes,
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


class TestListingBudget:
    """The breadth-first listing gives up with a UsageError past
    FILTER_STATE_BUDGET filters, and a listing that fits is the one it
    always gave.  The Heyting algebra of the 32 down-sets of a 5-point
    antichain is induced by no poset, so all three computations list."""

    def test_listing_past_budget_names_the_carrier(self, monkeypatch):
        x, y = np.indices((17, 17))
        chain = dot_table(np.where(y <= x, 0, y))  # the dual of the 17-chain's star table
        table, theta = heyting_downsets(np.eye(5, dtype=bool))
        rows = "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
        heyting = parse_algebra_file(f"kind dot\nn 32\ntheta {theta}\n{rows}")
        assert require_axioms(chain, "hilbert") is not None and require_axioms(heyting, "hilbert") is None
        monkeypatch.setattr(F, "FILTER_STATE_BUDGET", 16)
        # the filters of a chain are its prefixes
        assert all_filters(chain) == [frozenset(range(k)) for k in range(1, 18)]
        message = (
            "listing the filters of a 32-element algebra needs more than 16 states; "
            "the list is not available at this size"
        )
        for compute in (all_filters, maximal_filters, classify):
            with pytest.raises(UsageError) as raised:
                compute(heyting)
            assert str(raised.value) == message, compute

    def test_semisimple16_lists_at_the_budget(self, monkeypatch):
        dual = dualize(direct_algebra(semisimple_family(16)).algebra)
        assert len(all_filters(dual)) == 32768
        monkeypatch.setattr(F, "FILTER_STATE_BUDGET", 32768)  # as 2^18 at n = 19
        assert len(all_filters(dual)) == 32768
        monkeypatch.setattr(F, "FILTER_STATE_BUDGET", 16384)
        with pytest.raises(UsageError, match="filters of a 16-element algebra"):
            all_filters(dual)

    def test_cli_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c30.alg"
        path.write_text(serialize_algebra(_embedded_random(30)), encoding="utf-8")
        monkeypatch.setattr(F, "FILTER_STATE_BUDGET", 1000)
        assert run_command(["filters", "--all", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: listing the filters of a 61-element algebra needs more than 1000 states; "
            "the list is not available at this size"
        ]


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


def _induced_duals():
    """(name, dot table) for every table the order route serves in the
    oracle tests: the fixtures, the family tables and 100 seeded codes with
    at most 8 words of at most 8 bits, built both ways.  The wide family
    tables, semisimple and zero-bit local with 2^(n-1) + 1 and 2^(n-2) + 1
    filters, run up to n = 13; the all-ones and seeded local ones to 16."""
    for path in sorted(FIXTURES.glob("*.alg")):
        t = parse_algebra_file(path.read_text(encoding="utf-8"))
        yield path.name, dualize(t) if t.kind == STAR else t
    rng = np.random.default_rng(13)
    for n in range(2, 17):
        free = local_family_free_bit_count(n)
        local_bits = ["1" * free, "".join(map(str, rng.integers(0, 2, free)))]
        if n <= 13:
            yield f"semisimple{n}", dualize(direct_algebra(semisimple_family(n)).algebra)
            local_bits.insert(0, "0" * free)
        for bits in local_bits:
            yield f"local{n}:{bits}", dualize(direct_algebra(local_family(n, bits)).algebra)
    for i, code in enumerate(random_codes(100, seed=1313)):
        yield f"embedded{i}", dualize(embed_code(code).algebra)
        yield f"direct{i}", dualize(direct_algebra(code).algebra)


class TestOrderRouteMatchesRowGrowth:
    """On order-induced tables, the maximal filters, radical, verdicts and
    count read off the order, and the down-set growth of `all_filters` and
    `generated_filter`, equal the row growth of the same table; `is_filter`
    and its witness equal the `filter_witness` oracle on the table's rows."""

    def test_every_induced_table(self):
        def masks(sets) -> list[int]:
            return [sum(1 << i for i in s) for s in sets]

        rng = np.random.default_rng(31)
        tables = 0
        for name, h in _induced_duals():
            assert require_axioms(h, "hilbert") is not None, name
            row_growth = F._growth(h, None)
            found, maximal = F._enumerate_masks(h.n, row_growth)
            assert masks(all_filters(h)) == found, name
            assert masks(maximal_filters(h)) == maximal, name
            report = classify(h)
            assert report.all_filter_count == len(found), name
            assert masks(report.maximal_filters) == maximal, name
            if h.n > 1:
                radical = functools.reduce(operator.and_, maximal, (1 << h.n) - 1)
                assert masks([report.radical]) == [radical], name
                assert report.is_semisimple == (radical == 1), name
                assert report.is_local == (len(maximal) == 1), name
            # a filter, a filter with one more element, and random sets
            picks = [set(F._mask_to_set(found[int(rng.integers(len(found)))], h.n))]
            picks.append(picks[0] | {int(rng.integers(h.n))})
            picks += [set(np.flatnonzero(rng.random(h.n) < p).tolist()) for p in (0.2, 0.5)]
            picks += [chosen | {0} for chosen in picks[2:]]
            for chosen in picks:
                assert is_filter(h, chosen) == filter_witness(h.table, chosen), (name, chosen)
                mask = 1
                for a in sorted(chosen):
                    mask = row_growth(a, mask)
                assert generated_filter(h, chosen) == F._mask_to_set(mask, h.n), (name, chosen)
            tables += 1
        assert tables == 6 + 4 * 12 + 2 * 3 + 2 * 100


def _brute_downset_count(leq: np.ndarray) -> int:
    """Subsets S of the points with no i outside S below a point of S."""
    k = len(leq)
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
    above_in_s = subsets.astype(np.int64) @ leq.T.astype(np.int64) > 0  # [S, i]: some p in S has i <= p
    return int((~(above_in_s & ~subsets)).all(axis=1).sum())


def _antichains(leq: np.ndarray) -> int:
    comparable = F._row_masks(leq | leq.T)
    return F._antichain_count(comparable, (1 << len(leq)) - 1)


def _random_order(rng: np.random.Generator, k: int, density: float) -> np.ndarray:
    """The transitive closure of a random relation along a random labelling."""
    rel = np.triu(rng.random((k, k)) < density, 1) | np.eye(k, dtype=bool)
    for _ in range(k):
        rel = rel | ((rel.astype(np.int64) @ rel.astype(np.int64)) > 0)
    perm = rng.permutation(k)
    return rel[np.ix_(perm, perm)]


class TestAntichainCount:
    """The antichain count against a brute-force count of down-sets, which
    are in bijection with antichains through their maximal elements."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_every_labelled_poset(self, k):
        for leq in labeled_posets(k):
            assert _antichains(leq) == _brute_downset_count(leq), leq.astype(int)

    def test_seeded_random_orders(self):
        rng = np.random.default_rng(2024)
        split = 0
        for _ in range(300):
            k = int(rng.integers(1, 13))
            leq = _random_order(rng, k, float(rng.choice([0.05, 0.15, 0.3, 0.6])))
            split += len(F._components(F._row_masks(leq | leq.T), (1 << k) - 1)) > 1
            assert _antichains(leq) == _brute_downset_count(leq), leq.astype(int)
        assert split >= 100  # disconnected orders exercise the component product

    def test_empty_order_chain_and_deep_ladder(self):
        assert F._antichain_count([], 0) == 1
        assert _antichains(np.triu(np.ones((600, 600), dtype=bool))) == 601
        # 600 levels of two incomparable points, each level below the next:
        # each branch removes one level, far past the recursion limit
        level = np.arange(1200) // 2
        ladder = (level[:, None] < level[None, :]) | np.eye(1200, dtype=bool)
        assert _antichains(ladder) == 1 + 1200 + 600


def _embedded_random(k: int) -> OpTable:
    """The embedded algebra of k distinct seeded random k-bit words (Python's
    `random`, whose stream does not depend on the numpy version)."""
    rng = random.Random(k)
    words = {rng.getrandbits(k) for _ in range(2 * k)}
    return embed_code(BlockCode.from_strings(sorted(f"{w:0{k}b}" for w in words)[:k])).algebra


class TestAntichainBudget:
    """The count gives up with a UsageError past FILTER_STATE_BUDGET
    memoised sets, and a count that fits is the one it always gave."""

    def test_embedded_40x40_count_fits(self, monkeypatch):
        star = _embedded_random(40)
        assert classify(star).all_filter_count == 2749618505164
        monkeypatch.setattr(F, "FILTER_STATE_BUDGET", 1000)
        with pytest.raises(UsageError, match="filters of a 81-element algebra needs more than 1000 states"):
            classify(star)

    def test_cli_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c30.alg"
        path.write_text(serialize_algebra(_embedded_random(30)), encoding="utf-8")
        monkeypatch.setattr(F, "FILTER_STATE_BUDGET", 1000)
        assert run_command(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: counting the filters of a 61-element algebra needs more than 1000 states; "
            "the count is not available at this size"
        ]


class TestOrderRouteSkipsRowGrowth:
    @pytest.fixture
    def chain17(self, tmp_path):
        x, y = np.indices((17, 17))  # the star table of the chain 0 < 1 < ... < 16
        path = tmp_path / "chain17.alg"
        path.write_text(serialize_algebra(star_table(np.where(x <= y, 0, x))), encoding="utf-8")
        return str(path)

    def test_cli_output_unchanged_without_row_growth(self, capsys, monkeypatch, chain17):
        paths = [str(FIXTURES / "embed9_star.alg"), str(FIXTURES / "local5_star.alg"), chain17]
        commands = [
            [*argv, path, *json]
            for path in paths
            for argv in (["classify"], ["filters", "--maximal"], ["filters", "--all"])
            for json in ([], ["--json"])
        ]
        before = [(run_command(argv), capsys.readouterr()) for argv in commands]

        def refuse(row, mask):
            raise AssertionError("the row growth ran on an order-induced table")

        monkeypatch.setattr(F, "_grow", refuse)
        for argv, (code, captured) in zip(commands, before):
            assert code == 0, argv
            assert (run_command(argv), capsys.readouterr()) == (code, captured), argv

    def test_heyting_tables_keep_the_row_growth(self, monkeypatch):
        calls = []
        grow = F._grow

        def counted(row, mask):
            calls.append(mask)
            return grow(row, mask)

        monkeypatch.setattr(F, "_grow", counted)
        for k in range(2, 5):
            for h, _, _ in TestHeytingDownsets.algebras(k):
                if require_axioms(h, "hilbert") is not None:
                    continue
                for enumerate_ in (all_filters, maximal_filters, classify):
                    calls.clear()
                    enumerate_(h)
                    assert calls, (enumerate_.__name__, h.table)


class TestMaximalFiltersAtCodeScale:
    def test_embedded_100x100_code(self, capsys):
        rng = np.random.default_rng(100)
        code = BlockCode(np.unique(rng.integers(0, 2, (100, 100), dtype=np.uint8), axis=0))
        star = embed_code(code).algebra
        n = star.n
        assert n == 201
        leq = bck_order(star)
        tops = [m for m in range(1, n) if leq[m].sum() == 1]
        want = sorted(
            (frozenset(range(n)) - {m} for m in tops), key=lambda s: (len(s), sum(1 << i for i in s))
        )
        assert maximal_filters(dualize(star)) == want
        assert capsys.readouterr().err == ""  # O(n^2) on an induced table
