import itertools
import tracemalloc

import numpy as np
import pytest

from bckcodes import (
    DOT,
    STAR,
    BlockCode,
    OpTable,
    UsageError,
    are_isomorphic,
    bck_order,
    bck_properties,
    dualize,
    embed_code,
    verify_axioms,
)
from bckcodes.posets import star_from_order

from conftest import star_table
from golden import (
    EMBED9_DOT,
    EMBED9_LABELS,
    EMBED9_STAR,
    LOCAL5_DOT,
    LOCAL5_ORDER,
    LOCAL5_STAR,
    SEMI4_DOT,
    SEMI4_STAR,
)

CHAIN3 = [[0, 0, 0], [1, 0, 0], [2, 2, 0]]
ANTICHAIN3 = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]


def brute_bck_violations(table, theta=0):
    """Independent oracle: evaluate every axiom instance with plain loops."""
    t = np.asarray(table)
    n = t.shape[0]
    violations = []
    for x, y, z in itertools.product(range(n), repeat=3):
        if t[t[t[x, y], t[x, z]], t[z, y]] != theta:
            violations.append((1, (x, y, z)))
            break
    for x, y in itertools.product(range(n), repeat=2):
        if t[t[x, t[x, y]], y] != theta:
            violations.append((2, (x, y)))
            break
    for x in range(n):
        if t[x, x] != theta:
            violations.append((3, (x,)))
            break
    for x, y in itertools.product(range(n), repeat=2):
        if x != y and t[x, y] == theta and t[y, x] == theta:
            violations.append((4, (x, y)))
            break
    for x in range(n):
        if t[theta, x] != theta:
            violations.append((5, (x,)))
            break
    return sorted(violations)


class TestVerifyAxioms:
    def test_embed9_star_is_bck(self):
        t = star_table(EMBED9_STAR, labels=EMBED9_LABELS)
        assert verify_axioms(t, "bck").passed

    def test_embed9_dot_is_hilbert(self):
        d = OpTable(table=EMBED9_DOT, kind=DOT, labels=EMBED9_LABELS)
        assert verify_axioms(d, "hilbert").passed

    def test_local5_and_semi4_pass(self):
        assert verify_axioms(star_table(LOCAL5_STAR), "bck").passed
        assert verify_axioms(star_table(SEMI4_STAR), "bck").passed
        assert verify_axioms(OpTable(table=LOCAL5_DOT, kind=DOT), "hilbert").passed
        assert verify_axioms(OpTable(table=SEMI4_DOT, kind=DOT), "hilbert").passed

    def test_axiom3_violation_with_witness(self):
        t = star_table([[0, 0], [1, 1]])
        report = verify_axioms(t, "bck")
        assert not report.passed
        assert (3, (1,)) in report.violations

    def test_orientation_mismatch(self):
        t = star_table(CHAIN3)
        with pytest.raises(UsageError):
            verify_axioms(t, "hilbert")
        with pytest.raises(UsageError):
            verify_axioms(dualize(t), "bck")
        with pytest.raises(UsageError):
            verify_axioms(t, "nonsense")

    def test_bci_subset_of_bck(self):
        # theta*x = x violates only axiom 5, so the table is BCI but not BCK
        t = star_table([[0, 1], [1, 0]])
        assert verify_axioms(t, "bci").passed
        report = verify_axioms(t, "bck")
        assert [a for a, _ in report.violations] == [5]

    def test_matches_brute_oracle_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            raw = rng.integers(0, n, size=(n, n))
            t = OpTable(table=raw, kind=STAR)
            report = verify_axioms(t, "bck")
            assert sorted(report.violations) == brute_bck_violations(raw)


class TestScanMemory:
    def test_n201_scans_stay_under_16mb(self):
        # an n^3 int64 cube at n=201 alone is 62 MB; the scans build n x n slices
        rng = np.random.default_rng(201)
        words = set()
        while len(words) < 100:
            words.add("".join(str(int(b)) for b in rng.integers(0, 2, size=100)))
        alg = embed_code(BlockCode.from_strings(sorted(words, reverse=True))).algebra
        assert alg.n == 201
        dual = dualize(alg)
        runs = {
            "bck": lambda: verify_axioms(alg, "bck"),
            "hilbert": lambda: verify_axioms(dual, "hilbert"),
            "props": lambda: bck_properties(alg),
        }
        for name, call in runs.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (name, peak)


class TestBckProperties:
    def test_chain3_flags_and_witnesses(self):
        assert bck_properties(star_table(CHAIN3)) == {
            "commutative": (1, 2),
            "implicative": (1, 2),
            "positive_implicative": None,
        }

    def test_chain3_against_brute_oracle(self):
        t = np.array(CHAIN3)
        # a*(a*b) = a but b*(b*a) = theta
        assert t[1, t[1, 2]] == 1 and t[2, t[2, 1]] == 0
        # a*(b*a) = a*b = theta != a
        assert t[1, t[2, 1]] == 0

    def test_semi4_positive_implicative(self):
        witnesses = bck_properties(star_table(SEMI4_STAR))
        assert witnesses["positive_implicative"] is None
        # an antichain over theta is commutative and implicative
        assert witnesses["commutative"] is None and witnesses["implicative"] is None

    def test_one_element_all_true(self):
        witnesses = bck_properties(star_table([[0]]))
        assert list(witnesses) == ["commutative", "implicative", "positive_implicative"]
        assert set(witnesses.values()) == {None}

    def test_non_bck_input_rejected(self):
        with pytest.raises(UsageError):
            bck_properties(star_table([[0, 0], [1, 1]]))


class TestPropertyWitnesses:
    def test_witnesses_reevaluate_as_violations(self):
        # over every poset-induced table on up to 4 elements, a false flag
        # must come with a witness that violates the defining identity
        from test_posets import all_posets_with_least, poset_table

        for n in range(1, 5):
            for poset in all_posets_with_least(n):
                table = poset_table(poset)
                t = table.table
                witnesses = bck_properties(table)
                if witnesses["commutative"] is not None:
                    x, y = witnesses["commutative"]
                    assert t[x, t[x, y]] != t[y, t[y, x]]
                if witnesses["implicative"] is not None:
                    x, y = witnesses["implicative"]
                    assert t[x, t[y, x]] != x
                if witnesses["positive_implicative"] is not None:
                    x, y, z = witnesses["positive_implicative"]
                    assert t[t[x, y], z] != t[t[x, z], t[y, z]]


class TestDualityBiconditional:
    def test_all_three_element_tables(self):
        # positive implicative BCK star tables are exactly the tables whose
        # transpose satisfies the Hilbert axioms; exhaustive over all 3^9
        # three-element tables, covering both directions
        n = 3
        seen_pi_bck = 0
        seen_bck_not_pi = 0
        for flat in itertools.product(range(n), repeat=n * n):
            star = OpTable(table=np.array(flat).reshape(n, n), kind=STAR)
            bck_ok = verify_axioms(star, "bck").passed
            pi_ok = bck_ok and bck_properties(star)["positive_implicative"] is None
            hilbert_ok = verify_axioms(dualize(star), "hilbert").passed
            assert pi_ok == hilbert_ok, flat
            if pi_ok:
                seen_pi_bck += 1
            elif bck_ok:
                seen_bck_not_pi += 1
        # the scan must actually exercise both directions
        assert seen_pi_bck > 0
        assert seen_bck_not_pi > 0


class TestDualize:
    def test_embed9_star_to_dot(self):
        t = star_table(EMBED9_STAR, labels=EMBED9_LABELS)
        d = dualize(t)
        assert d.kind == DOT
        assert np.array_equal(d.table, EMBED9_DOT)
        assert d.labels == EMBED9_LABELS

    def test_semi4_star_to_dot(self):
        assert np.array_equal(dualize(star_table(SEMI4_STAR)).table, SEMI4_DOT)

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            t = OpTable(table=rng.integers(0, n, size=(n, n)), kind=STAR)
            assert dualize(dualize(t)) == t


class TestBckOrder:
    def test_local5_relations(self):
        poset = bck_order(star_table(LOCAL5_STAR))
        strict = {
            (i, j)
            for i in range(5)
            for j in range(5)
            if i != j and poset.leq[i, j]
        }
        assert strict == LOCAL5_ORDER
        assert poset.leq[0].all()

    def test_reflexive_for_any_valid_table(self):
        poset = bck_order(star_table(EMBED9_STAR))
        assert poset.leq.diagonal().all()

    def test_semi4_antichain_over_theta(self):
        poset = bck_order(star_table(SEMI4_STAR))
        for i, j in itertools.permutations(range(1, 4), 2):
            assert not poset.leq[i, j]
        assert poset.leq[0].all()

    def test_labels_carried(self):
        poset = bck_order(star_table(LOCAL5_STAR, labels=("θ", "a", "b", "c", "d")))
        assert poset.labels == ("θ", "a", "b", "c", "d")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 0, 0], [1, 0, 0], [2, 0, 0]], "relation is not antisymmetric: 1 <= 2 and 2 <= 1"),
            ([[0, 1], [1, 0]], "element 0 is not below every element"),
        ],
    )
    def test_non_order_rejected(self, rows, message):
        with pytest.raises(UsageError) as err:
            bck_order(star_table(rows))
        assert str(err.value) == f"table does not induce a partial order: {message}"


class TestAreIsomorphic:
    def test_identity(self):
        t = star_table(SEMI4_STAR)
        assert are_isomorphic(t, t) == (0, 1, 2, 3)

    def test_antichain_relabeling(self):
        t = star_table(SEMI4_STAR)
        # swap elements a and b in the table
        perm = np.array([0, 2, 1, 3])
        swapped = perm[SEMI4_STAR[perm[:, None], perm[None, :]]]
        result = are_isomorphic(t, star_table(swapped))
        assert result is not None
        mapping = np.array(result)
        assert np.array_equal(
            mapping[SEMI4_STAR], swapped[mapping[:, None], mapping[None, :]]
        )

    def test_chain_vs_antichain(self):
        # oracle: check both theta-fixing bijections of 3 elements by hand
        chain, anti = np.array(CHAIN3), np.array(ANTICHAIN3)
        for perm in ([0, 1, 2], [0, 2, 1]):
            p = np.array(perm)
            assert not np.array_equal(p[chain], anti[p[:, None], p[None, :]])
        assert are_isomorphic(star_table(CHAIN3), star_table(ANTICHAIN3)) is None

    def test_size_mismatch(self):
        assert are_isomorphic(star_table(CHAIN3), star_table([[0]])) is None

    def test_kind_mismatch(self):
        with pytest.raises(UsageError):
            are_isomorphic(star_table(CHAIN3), dualize(star_table(CHAIN3)))

    def test_symmetry_and_mapping_validity(self):
        rng = np.random.default_rng(17)
        tables = []
        for _ in range(12):
            n = int(rng.integers(2, 7))
            leq = np.eye(n, dtype=bool)
            leq[0] = True
            for i in range(1, n):
                for j in range(1, n):
                    if i < j and rng.random() < 0.4:
                        leq[i, j] = True
            closure = leq.copy()
            for k in range(n):
                closure |= np.outer(closure[:, k], closure[k, :])
            tables.append(star_table(star_from_order(closure)))
        for t1 in tables:
            for t2 in tables:
                r12 = are_isomorphic(t1, t2)
                r21 = are_isomorphic(t2, t1)
                assert (r12 is None) == (r21 is None)
                if r12 is not None:
                    m = np.array(r12)
                    assert sorted(r12) == list(range(t1.n))
                    assert np.array_equal(
                        m[t1.table], t2.table[m[:, None], m[None, :]]
                    )


class TestRelabelInvariance:
    def test_verify_axioms_invariant_under_relabeling(self):
        rng = np.random.default_rng(23)
        t = EMBED9_STAR
        for _ in range(10):
            perm = np.concatenate(([0], rng.permutation(np.arange(1, 9))))
            relabeled = perm[t[np.argsort(perm)[:, None], np.argsort(perm)[None, :]]]
            assert verify_axioms(star_table(relabeled), "bck").passed
