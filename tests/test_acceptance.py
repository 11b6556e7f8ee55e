"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 1 carries a documented discrepancy: the six-set maximal-filter
list recorded with the 9-element worked example contains one set that
is not deductively closed under the example's own printed tables (the set
dropping only w4, while w4 sits strictly below the retained w9).  The main
test asserts the brute-force-verified facts; a strict-xfail companion keeps
the literal claim on record.  See notes on the element swap (w3 w4)(w8 w9),
which is an automorphism of the algebra, for why no isomorphism-invariant
filter notion can accept exactly the six published sets.
"""
import time

import numpy as np
import pytest

from bckcodes import (
    BlockCode,
    classify,
    census,
    cut_code,
    direct_algebra,
    dualize,
    embed_code,
    bck_properties,
    is_filter,
    local_family,
    local_family_free_bit_count,
    maximal_filters,
    roundtrip_check,
    semisimple_family,
    tail_set_check,
    verify_axioms,
)
from bckcodes import codegen
from bckcodes.cli import run_command
from bckcodes.posets import domination_leq

from conftest import all_words, brute_maximal, loop_leq, posets_up_to_iso, random_codes
from golden import (
    EMBED9_CODE,
    EMBED9_DOT,
    EMBED9_NONCLOSED_WITNESS,
    EMBED9_SIX_SET_CLAIM,
    EMBED9_SIX_SET_RADICAL,
    EMBED9_STAR,
    EMBED9_TAIL_SET,
    EMBED9_TAIL_WITNESS,
    EMBED9_VERIFIED_MAXIMAL,
    EMBED9_VERIFIED_RADICAL,
    LOCAL5_CODE,
    LOCAL5_DOT,
    LOCAL5_MAXIMAL,
    LOCAL5_STAR,
    SEMI4_CODE,
    SEMI4_DOT,
    SEMI4_MAXIMAL,
    SEMI4_STAR,
)


def report(number: int, name: str, started: float, note: str = "") -> None:
    line = f"acceptance {number:02d} {name}: PASS ({time.perf_counter() - started:.2f}s)"
    if note:
        line += f" -- {note}"
    print(line)


@pytest.fixture(scope="module")
def corpus():
    """Algebras generated by criteria 1-5, reused by the duality suite."""
    algebras = [
        embed_code(BlockCode.from_strings(EMBED9_CODE)).algebra,
        direct_algebra(BlockCode.from_strings(LOCAL5_CODE)).algebra,
        direct_algebra(BlockCode.from_strings(SEMI4_CODE)).algebra,
    ]
    for n in range(3, 11):
        algebras.append(direct_algebra(semisimple_family(n)).algebra)
    for n in range(3, 7):
        width = local_family_free_bit_count(n)
        for mask in range(2**width):
            bits = format(mask, f"0{width}b") if width else ""
            algebras.append(direct_algebra(local_family(n, bits)).algebra)
    rng = np.random.default_rng(2024)
    for n in range(7, 11):
        width = local_family_free_bit_count(n)
        for _ in range(100):
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=width))
            algebras.append(direct_algebra(local_family(n, bits)).algebra)
    return algebras


def test_criterion_01_embedding_golden():
    started = time.perf_counter()
    emb = embed_code(BlockCode.from_strings(EMBED9_CODE))
    assert np.array_equal(emb.algebra.table, EMBED9_STAR)
    assert np.array_equal(dualize(emb.algebra).table, EMBED9_DOT)

    dot = dualize(emb.algebra)
    found = maximal_filters(dot)
    # five of the six recorded sets are filters; the sixth fails closure
    verdicts = [is_filter(dot, s) for s in EMBED9_SIX_SET_CLAIM]
    assert [ok for ok, _ in verdicts] == [True] * 5 + [False]
    assert verdicts[5][1] == EMBED9_NONCLOSED_WITNESS
    # enumeration (cross-checked against the subset-scan oracle) finds
    # exactly those five as the maximal filters
    assert set(found) == set(EMBED9_VERIFIED_MAXIMAL)
    assert set(found) == set(brute_maximal(EMBED9_DOT))

    rep = classify(emb.algebra)
    assert rep.radical == EMBED9_VERIFIED_RADICAL
    assert not rep.is_semisimple
    assert not rep.is_local
    report(
        1,
        "9-element embedding golden",
        started,
        "tables exact; five maximal filters verified, the recorded sixth set "
        f"fails closure at witness {EMBED9_NONCLOSED_WITNESS}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "recorded maximal-filter list for the 9-element example is not "
        "reproducible from its own tables: the set omitting only w4 is not "
        "deductively closed (w9 . w4 = theta inside, w4 outside), and the "
        "automorphism swapping (w3 w4)(w8 w9) rules out any invariant "
        "filter notion accepting exactly those six sets"
    ),
)
def test_criterion_01_published_filter_list_as_stated():
    emb = embed_code(BlockCode.from_strings(EMBED9_CODE))
    dot = dualize(emb.algebra)
    found = set(maximal_filters(dot))
    assert found == set(EMBED9_SIX_SET_CLAIM)
    assert classify(emb.algebra).radical == EMBED9_SIX_SET_RADICAL


def test_criterion_02_local5_golden():
    started = time.perf_counter()
    emb = direct_algebra(BlockCode.from_strings(LOCAL5_CODE))
    assert np.array_equal(emb.algebra.table, LOCAL5_STAR)
    dot = dualize(emb.algebra)
    assert np.array_equal(dot.table, LOCAL5_DOT)
    for s in ({0, 1}, {0, 2}, {0, 1, 2}, {0, 1, 2, 3}):
        ok, _ = is_filter(dot, s)
        assert ok, s
    rep = classify(emb.algebra)
    assert list(rep.maximal_filters) == LOCAL5_MAXIMAL
    assert rep.is_local and not rep.is_semisimple
    report(2, "5-element direct golden", started)


def test_criterion_03_semi4_golden():
    started = time.perf_counter()
    emb = direct_algebra(BlockCode.from_strings(SEMI4_CODE))
    assert np.array_equal(emb.algebra.table, SEMI4_STAR)
    assert np.array_equal(dualize(emb.algebra).table, SEMI4_DOT)
    rep = classify(emb.algebra)
    assert list(rep.maximal_filters) == SEMI4_MAXIMAL
    assert rep.radical == frozenset({0})
    assert rep.is_semisimple and not rep.is_local
    report(3, "4-element direct golden", started)


def test_criterion_04_semisimple_family():
    started = time.perf_counter()
    for n in range(3, 11):
        rep = classify(direct_algebra(semisimple_family(n)).algebra)
        assert rep.is_semisimple, n
        assert len(rep.maximal_filters) == n - 1, n
        assert all(len(f) == n - 1 for f in rep.maximal_filters), n
    report(4, "semisimple family n in [3,10]", started)


def test_criterion_05_local_family():
    started = time.perf_counter()
    checked = 0
    for n in range(3, 7):
        width = local_family_free_bit_count(n)
        for mask in range(2**width):
            bits = format(mask, f"0{width}b") if width else ""
            rep = classify(direct_algebra(local_family(n, bits)).algebra)
            assert rep.is_local, (n, bits)
            assert rep.maximal_filters[0] == frozenset(range(n - 1)), (n, bits)
            checked += 1
    rng = np.random.default_rng(2024)
    for n in range(7, 11):
        width = local_family_free_bit_count(n)
        for _ in range(100):
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=width))
            rep = classify(direct_algebra(local_family(n, bits)).algebra)
            assert rep.is_local, (n, bits)
            assert rep.maximal_filters[0] == frozenset(range(n - 1)), (n, bits)
            checked += 1
    report(5, "local family exhaustive [3,6] + sampled [7,10]", started, f"{checked} assignments")


def test_criterion_06_duality_suite(corpus):
    started = time.perf_counter()
    algebras = list(corpus)
    for code in random_codes(200, seed=606):
        algebras.append(embed_code(code).algebra)
    for alg in algebras:
        assert verify_axioms(alg, "bck") == ()
        assert bck_properties(alg)["positive_implicative"] is None
        dual = dualize(alg)
        assert verify_axioms(dual, "hilbert") == ()
        assert dualize(dual) == alg
    report(6, "duality property suite", started, f"{len(algebras)} algebras")


def test_criterion_07_roundtrip():
    started = time.perf_counter()
    assert roundtrip_check(BlockCode.from_strings(EMBED9_CODE)).ok
    emb = embed_code(BlockCode.from_strings(EMBED9_CODE))
    res = cut_code(emb.algebra, emb.code_row_elements, emb.tail_elements)
    assert res.words == ("0011", "0010", "0001", "0000")
    for code in random_codes(200, seed=707):
        assert roundtrip_check(code).ok, code.strings()
    report(7, "cut-row roundtrip", started, "201 codes")


def test_criterion_08_tail_set_discrepancy_gate(capsys):
    started = time.perf_counter()
    emb = embed_code(BlockCode.from_strings(EMBED9_CODE))
    members, ok, witness = tail_set_check(emb)
    assert members == EMBED9_TAIL_SET
    assert ok is False
    assert witness == EMBED9_TAIL_WITNESS

    zero = embed_code(BlockCode.from_strings(["00"]))
    _, ok_zero, _ = tail_set_check(zero)
    assert ok_zero is True

    # the verdict must be surfaced in the build report, not asserted away
    import json
    from conftest import FIXTURES

    code = run_command(["build", "--mode", "embed", "--json", str(FIXTURES / "embed9.code")])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["tail_set"]["is_filter"] is False
    assert payload["tail_set"]["witness"] == [7, 1]
    code = run_command(["build", "--mode", "embed", str(FIXTURES / "embed9.code")])
    out = capsys.readouterr().out
    assert "NOT a filter" in out
    report(8, "tail-set check gate", started, "verdict false at (w8, w2); all-zeros code true")


def test_criterion_09_census(capsys, monkeypatch):
    started = time.perf_counter()
    expectations = {3: (2, 2, True), 4: (5, 8, False), 5: (16, 64, False)}
    for n, (classes, bound, met) in expectations.items():
        rep = census(n)
        assert rep.class_count == classes, n
        assert rep.total_matrices == bound, n
        assert rep.bound_met is met, n
        assert rep.class_count == len(posets_up_to_iso(n - 1)), n

    outs = []
    for cpus in (1, 8):  # the keying threads are sized from the usable CPUs
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
        outs.append((run_command(["census", "--n", "5"]), capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    report(9, "isomorphism census n in [3,5]", started, "oracle counts matched; 1 vs 8 CPUs identical")


def test_criterion_10_order_oracle():
    started = time.perf_counter()
    for length in range(1, 7):
        rows = all_words(length)
        leq = loop_leq(rows)
        assert np.array_equal(leq & leq.T, np.eye(len(rows), dtype=bool))
        reach = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        assert not (reach & ~leq).any()
        assert np.array_equal(leq, domination_leq(rows))
    report(10, "codeword order axioms exhaustive length <= 6", started)
