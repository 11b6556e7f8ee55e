import inspect
import itertools
import json
import sys
import time
import tracemalloc
from collections import Counter

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
    census,
    direct_algebra,
    dualize,
    embed_code,
    parse_algebra_file,
    refine_colors,
    semisimple_family,
    serialize_algebra,
    verify_axioms,
)
from bckcodes import _kernels as K
from bckcodes.cli import run_command
from bckcodes.posets import domination_leq, star_from_order

from conftest import FIXTURES, heyting_downsets, posets_up_to_iso, star_table
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
        assert verify_axioms(t, "bck") == ()

    def test_embed9_dot_is_hilbert(self):
        d = OpTable(table=EMBED9_DOT, kind=DOT, labels=EMBED9_LABELS)
        assert verify_axioms(d, "hilbert") == ()

    def test_local5_and_semi4_pass(self):
        assert verify_axioms(star_table(LOCAL5_STAR), "bck") == ()
        assert verify_axioms(star_table(SEMI4_STAR), "bck") == ()
        assert verify_axioms(OpTable(table=LOCAL5_DOT, kind=DOT), "hilbert") == ()
        assert verify_axioms(OpTable(table=SEMI4_DOT, kind=DOT), "hilbert") == ()

    def test_axiom3_violation_with_witness(self):
        t = star_table([[0, 0], [1, 1]])
        violations = verify_axioms(t, "bck")
        assert violations
        assert (3, (1,)) in violations

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
        assert verify_axioms(t, "bci") == ()
        assert [a for a, _ in verify_axioms(t, "bck")] == [5]

    def test_matches_brute_oracle_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            raw = rng.integers(0, n, size=(n, n))
            t = OpTable(table=raw, kind=STAR)
            assert sorted(verify_axioms(t, "bck")) == brute_bck_violations(raw)


class TestScanMemory:
    """The n^3 scans build n x n slices, never an n^3 cube: at n=201 an int64
    cube alone is 62 MB. Embedded codes take the closed form, so their tables
    are fed to the kernels directly; a bounded-subtraction chain is valid but
    not order-induced and reaches the scans through the public calls."""

    @staticmethod
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_n201_scans_stay_under_16mb(self):
        rng = np.random.default_rng(201)
        words = set()
        while len(words) < 100:
            words.add("".join(str(int(b)) for b in rng.integers(0, 2, size=100)))
        alg = embed_code(BlockCode.from_strings(sorted(words, reverse=True))).algebra
        assert alg.n == 201
        dual = dualize(alg)
        runs = {
            "bck": lambda: K.bck_axiom_scan(alg.table),
            "hilbert": lambda: K.hilbert_axiom_scan(dual.table),
            "props": lambda: K.bck_property_scan(alg.table),
        }
        for name, call in runs.items():
            peak = self.peak_bytes(call)
            assert peak < 16 * 2**20, (name, peak)

    def test_n201_chain_outside_the_closed_form_stays_under_16mb(self, monkeypatch):
        x = np.arange(201)
        chain = star_table(np.maximum(x[:, None] - x[None, :], 0))
        dual = dualize(chain)
        calls = counting_scans(monkeypatch)
        runs = {
            "bck": lambda: verify_axioms(chain, "bck"),
            "hilbert": lambda: verify_axioms(dual, "hilbert"),
            "props": lambda: bck_properties(chain),
        }
        for name, call in runs.items():
            peak = self.peak_bytes(call)
            assert peak < 16 * 2**20, (name, peak)
        assert calls == {"bck_axiom_scan": 2, "hilbert_axiom_scan": 1, "positive_implicative_scan": 1}


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
        from test_posets import all_posets_with_least, order_table

        for n in range(1, 5):
            for leq in all_posets_with_least(n):
                table = order_table(leq)
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
            bck_ok = verify_axioms(star, "bck") == ()
            pi_ok = bck_ok and bck_properties(star)["positive_implicative"] is None
            hilbert_ok = verify_axioms(dualize(star), "hilbert") == ()
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
        leq = bck_order(star_table(LOCAL5_STAR))
        assert leq.dtype == bool
        strict = {
            (i, j)
            for i in range(5)
            for j in range(5)
            if i != j and leq[i, j]
        }
        assert strict == LOCAL5_ORDER
        assert leq[0].all()

    def test_reflexive_for_any_valid_table(self):
        leq = bck_order(star_table(EMBED9_STAR))
        assert leq.diagonal().all()

    def test_semi4_antichain_over_theta(self):
        leq = bck_order(star_table(SEMI4_STAR))
        for i, j in itertools.permutations(range(1, 4), 2):
            assert not leq[i, j]
        assert leq[0].all()

    def test_labels_carried(self, tmp_path, capsys):
        # the order is a bare matrix: labels stay on the table, where `hasse` reads them
        labelled = star_table(LOCAL5_STAR, labels=("θ", "a", "b", "c", "d"))
        assert np.array_equal(bck_order(labelled), bck_order(star_table(LOCAL5_STAR)))
        path = tmp_path / "local5.alg"
        path.write_text(serialize_algebra(labelled), encoding="utf-8")
        assert run_command(["hasse", "--json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["labels"] == ["θ", "a", "b", "c", "d"]

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

    def test_deep_table_needs_no_recursion(self):
        # the search must not recurse once per element: 301 elements under a
        # recursion limit only 100 frames above the caller's stack
        t = direct_algebra(semisimple_family(301)).algebra
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            result = are_isomorphic(t, t)
        finally:
            sys.setrecursionlimit(limit)
        assert result == tuple(range(301))


def brute_iso(a: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    """Independent oracle: the first theta-fixing bijection (0, *p), p in
    lexicographic order, that carries table a onto table b."""
    n = len(a)
    if len(b) != n:
        return None
    perms = np.array([(0, *p) for p in itertools.permutations(range(1, n))])
    hits = (perms[:, a] == b[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
    return tuple(perms[hits.argmax()].tolist()) if hits.any() else None


def relabel(t: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table of t with element x renamed perm[x]."""
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


def embedded(edges, vertices: int) -> OpTable:
    """The embedded algebra of the incidence code of a graph: one word per
    edge, with the bits of its two ends."""
    rows = np.zeros((len(edges), vertices), dtype=np.uint8)
    for i, (u, v) in enumerate(edges):
        rows[i, [u, v]] = 1
    return embed_code(BlockCode(rows)).algebra


def cycle_edges(k: int, start: int = 0) -> list[tuple[int, int]]:
    return [(start + i, start + (i + 1) % k) for i in range(k)]


class TestIsoOracle:
    """`are_isomorphic` returns exactly the lexicographically first
    theta-fixing isomorphism, checked by brute force on small tables that a
    poset induces and on tables that none does."""

    @staticmethod
    def tables() -> list[OpTable]:
        tables = [
            direct_algebra(BlockCode.from_strings(rep)).algebra
            for n in range(2, 7)
            for rep in census(n).class_representatives
        ]
        # bounded subtraction on a k-chain: a BCK-algebra no poset induces
        for k in range(1, 7):
            x = np.arange(k)
            tables.append(star_table(np.maximum(x[:, None] - x[None, :], 0)))
        for k in range(1, 5):
            for leq in posets_up_to_iso(k):
                table, theta = heyting_downsets(leq)
                if len(table) <= 7:
                    text = f"kind dot\nn {len(table)}\ntheta {theta}\n"
                    text += "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
                    tables.append(parse_algebra_file(text))
        # embedded cycle codes: every word looks alike, so the search must branch
        tables += [embedded(cycle_edges(k), k) for k in (3, 4)]
        return tables

    def test_first_isomorphism_matches_brute_force(self):
        rng = np.random.default_rng(41)
        tables = self.tables()
        pairs = 0
        for i, t in enumerate(tables):
            perm = np.concatenate(([0], 1 + rng.permutation(t.n - 1)))
            moved = OpTable(table=relabel(t.table, perm), kind=t.kind)
            same_size = [u for u in tables[i + 1 :] if u.n == t.n and u.kind == t.kind][:3]
            for u, v in [(t, moved), (moved, t), (t, t), *((t, u) for u in same_size)]:
                assert are_isomorphic(u, v) == brute_iso(u.table, v.table), (u, v)
                pairs += 1
        assert pairs > 500

    def test_refine_colors_invariant_under_relabeling(self):
        rng = np.random.default_rng(43)
        for t in self.tables():
            perm = np.concatenate(([0], 1 + rng.permutation(t.n - 1)))
            colors = np.array(refine_colors(t.table, relabel(t.table, perm)))
            assert np.array_equal(colors[t.n :][perm], colors[: t.n])


class TestIsoOnSymmetricCodes:
    """Codes whose words all look alike: one colour refinement leaves whole
    classes, so the search has to branch and refine again.  Each answer
    comes in well under a second (exponential without the refinement)."""

    @staticmethod
    def relabelled(t: OpTable, seed: int) -> OpTable:
        rng = np.random.default_rng(seed)
        return OpTable(table=relabel(t.table, np.concatenate(([0], 1 + rng.permutation(t.n - 1)))), kind=t.kind)

    @staticmethod
    def timed(t1: OpTable, t2: OpTable):
        start = time.perf_counter()
        mapping = are_isomorphic(t1, t2)
        assert time.perf_counter() - start < 1.0
        if mapping is not None:
            m = np.array(mapping)
            assert np.array_equal(m[t1.table], t2.table[m[:, None], m[None, :]])
        return mapping

    @pytest.mark.parametrize("k", [8, 12])
    def test_cycle_against_relabelling_and_two_half_cycles(self, k):
        cycle = embedded(cycle_edges(k), k)
        assert cycle.n == 2 * k + 1
        assert self.timed(cycle, self.relabelled(cycle, k)) is not None
        halves = embedded(cycle_edges(k // 2) + cycle_edges(k // 2, k // 2), k)
        assert self.timed(cycle, halves) is None

    def test_complete_graph_k7_against_relabelling(self):
        k7 = embedded(list(itertools.combinations(range(7), 2)), 7)
        assert k7.n == 29
        assert self.timed(k7, self.relabelled(k7, 7)) is not None

    def test_petersen_against_relabelling_and_prism(self):
        spokes = [(i, 5 + i) for i in range(5)]
        petersen = embedded(cycle_edges(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + spokes, 10)
        prism = embedded(cycle_edges(5) + cycle_edges(5, 5) + spokes, 10)
        assert self.timed(petersen, self.relabelled(petersen, 10)) is not None
        assert self.timed(petersen, prism) is None
        assert self.timed(prism, self.relabelled(prism, 5)) is not None

    def test_semisimple_301_against_itself_and_relabelling(self):
        """Every nonzero element of the direct semisimple algebra looks alike,
        so refinement leaves one class of 300; the first colour-keeping
        bijection is an isomorphism before any placement."""
        semi = direct_algebra(semisimple_family(301)).algebra
        assert semi.n == 301
        assert self.timed(semi, semi) == tuple(range(301))
        assert self.timed(semi, self.relabelled(semi, 301)) == tuple(range(301))


class TestRelabelInvariance:
    def test_verify_axioms_invariant_under_relabeling(self):
        rng = np.random.default_rng(23)
        t = EMBED9_STAR
        for _ in range(10):
            perm = np.concatenate(([0], rng.permutation(np.arange(1, 9))))
            relabeled = perm[t[np.argsort(perm)[:, None], np.argsort(perm)[None, :]]]
            assert verify_axioms(star_table(relabeled), "bck") == ()


def zero_or_x_tables(n):
    """Every star table on n elements whose cell (x, y) is 0 or x."""
    idx = np.arange(n)
    for bits in itertools.product((0, 1), repeat=(n - 1) * n):
        t = np.zeros((n, n), dtype=np.int64)
        t[1:] = np.array(bits).reshape(n - 1, n) * idx[1:, None]
        yield t


def random_zero_or_x_tables(count, seed):
    """Seeded {0, x} star tables with 5 to 8 elements: the table of the
    domination order of random rows under an all-ones row, with 0, 1 or 2
    cells toggled between 0 and x.  Equal rows break antisymmetry."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(5, 9))
        rows = rng.integers(0, 2, size=(n, int(rng.integers(3, 9))))
        rows[0] = 1
        t = star_from_order(domination_leq(rows))
        for _ in range(k % 3):
            x, y = rng.integers(n, size=2)
            t[x, y] = x - t[x, y]
        yield t


def scanned(scan) -> tuple:
    return tuple((axiom, w) for axiom, w in enumerate(scan, start=1) if w is not None)


class TestClosedFormAgainstScans:
    """On {0, x} star tables, `verify_axioms` and `bck_properties` report
    exactly what the kernel scans report, for the order-induced tables they
    accept in closed form and for the rest."""

    @staticmethod
    def agrees(t: np.ndarray) -> bool:
        star = star_table(t)
        bck = K.bck_axiom_scan(t)
        assert verify_axioms(star, "bck") == scanned(bck), t
        assert verify_axioms(star, "bci") == scanned(bck[:4]), t
        assert verify_axioms(dualize(star), "hilbert") == scanned(K.hilbert_axiom_scan(t.T)), t
        if scanned(bck):
            return False
        assert tuple(bck_properties(star).values()) == K.bck_property_scan(t), t
        return True

    def test_every_small_table(self):
        verdicts = [self.agrees(t) for n in range(1, 5) for t in zero_or_x_tables(n)]
        # 1 + 1 + 3 + 19 tables are orders with 0 least: the labelled posets
        # on the other n - 1 elements
        assert (sum(verdicts), len(verdicts)) == (24, 1 + 4 + 64 + 4096)

    def test_seeded_tables_up_to_8(self):
        verdicts = [self.agrees(t) for t in random_zero_or_x_tables(600, seed=53)]
        assert 100 < sum(verdicts) < 500


def counting_scans(monkeypatch) -> Counter:
    """Wrap the n^3 kernel scans so that each call is counted."""
    calls = Counter()
    for name in ("bck_axiom_scan", "hilbert_axiom_scan", "positive_implicative_scan"):
        def counted(table, _name=name, _scan=getattr(K, name)):
            calls[_name] += 1
            return _scan(table)

        monkeypatch.setattr(K, name, counted)
    return calls


def heyting_table(leq) -> OpTable:
    table, theta = heyting_downsets(np.array(leq, dtype=bool))
    text = f"kind dot\nn {len(table)}\ntheta {theta}\n"
    text += "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
    return parse_algebra_file(text)


class TestTablesOutsideTheClosedForm:
    """Valid algebras that no poset induces still reach the scans, and their
    reports and witnesses are the scans'."""

    def test_bounded_subtraction_chain(self, monkeypatch):
        x = np.arange(5)
        chain = star_table(np.maximum(x[:, None] - x[None, :], 0))
        calls = counting_scans(monkeypatch)
        assert verify_axioms(chain, "bck") == ()
        assert bck_properties(chain) == {
            "commutative": None,
            "implicative": (1, 2),
            "positive_implicative": (2, 1, 1),
        }
        assert verify_axioms(dualize(chain), "hilbert") == ((2, (1, 1, 2)),)
        assert calls == {"bck_axiom_scan": 2, "positive_implicative_scan": 1, "hilbert_axiom_scan": 1}

    @pytest.mark.parametrize(
        "leq, props",
        [
            ([[1, 0], [0, 1]], (None, None, None)),
            ([[1, 0, 1], [0, 1, 1], [0, 0, 1]], ((1, 4), (4, 1), None)),
        ],
        ids=["boolean-4", "heyting-5"],
    )
    def test_heyting_downsets(self, monkeypatch, leq, props):
        h = heyting_table(leq)
        calls = counting_scans(monkeypatch)
        assert verify_axioms(h, "hilbert") == ()
        assert tuple(bck_properties(dualize(h)).values()) == props
        assert calls == {"hilbert_axiom_scan": 1, "bck_axiom_scan": 1, "positive_implicative_scan": 1}


class TestClosedFormNeedsNoScan:
    def test_cli_on_an_embedded_code_without_the_cubic_scans(self, capsys, monkeypatch):
        path = str(FIXTURES / "embed9_star.alg")
        commands = [
            ["verify", "--kind", "bck", path],
            ["verify", "--kind", "bci", path],
            ["props", path],
            ["iso", path, path],
            ["classify", path],
        ]
        before = [(run_command(argv), capsys.readouterr()) for argv in commands]

        def refuse(table):
            raise AssertionError("an n^3 scan ran on an order-induced table")

        for name in ("bck_axiom_scan", "hilbert_axiom_scan", "positive_implicative_scan"):
            monkeypatch.setattr(K, name, refuse)
        for argv, (code, captured) in zip(commands, before):
            assert (code, captured.err) == (0, ""), argv
            assert (run_command(argv), capsys.readouterr()) == (code, captured), argv
