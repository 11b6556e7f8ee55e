"""The two workloads: seeded inputs, the ops that run on them, and an
oracle per op.

`census` is the isomorphism census, exhaustive at n = 5, 6, 7 and sampled
at n = 9, 10.  `algebra` is filter enumeration and classification on wide
and narrow filter lattices, then the build / verify / props / roundtrip /
hasse / iso pipeline on embedded codes up to n = 301.  Each is long enough
that a run of the declared length holds several passes.

`build(name, seed, root)` returns a Spec with the inputs ({file name:
bytes}) and the ops.  Each op is an argv for `bckcodes.cli.run_command`,
the exit code it must return, and a check of its stdout against
reference.py.  Paths in argv are relative to the directory the inputs are
written to, and the child runs there.

Every workload ends with the same smoke ops: one small instance of each
subcommand, so that every layer is exercised, and every per-layer metric is
measured, on every workload.  They take well under 1% of a pass.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("census", "algebra")

# sha256 prefixes of `census --n N --json`, pinned before any rewrite.
CENSUS_ANCHORS = {
    4: "f2865471451ebdbe",
    5: "d36b3f97be0bab59",
    6: "1c1e93d7052f3e49",
    7: "9fb4060a23a84f8f",
}
# Unlabeled posets on n-1 points (OEIS A000112): the census class counts.
POSET_COUNTS = {3: 2, 4: 5, 5: 16, 6: 63, 7: 318}

SAMPLED = ((9, 10), (10, 1))        # (n, samples) per sampled census op
PIPELINE_SIZES = (40, 150)          # square codes; embedded n = 2k + 1
SEMISIMPLE_N = (12, 13)
LOCAL_ZERO_N = 13
LOCAL_ONES_N = 16
RANDOM_FILTER_CODES = 4
FIXTURES = ("local5_star.alg", "embed9_star.alg", "semisimple4_star.alg")


@dataclass
class Op:
    argv: list[str]
    rc: int
    check: Callable[[str], str | None]


class Spec:
    """Collects input files and ops for one workload."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.files: dict[str, bytes] = {}
        self.ops: list[Op] = []

    def file(self, name: str, text: str) -> str:
        self.files[name] = text.encode()
        return name

    def op(self, argv: list[str], rc: int, check: Callable[..., str | None],
           raw: bool = False) -> None:
        """Add an op; `check` gets the parsed report for --json ops (the raw
        stdout when `raw` is set or without --json) and returns None or what
        is wrong."""
        def checked(stdout: str) -> str | None:
            try:
                return check(stdout if raw or "--json" not in argv else json.loads(stdout))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"unreadable output: {exc!r}"

        self.ops.append(Op(argv, rc, checked))


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _census_common(js: dict, n: int) -> str | None:
    sizes = [c["size"] for c in js["classes"]]
    if js["n"] != n or sum(sizes) != js["evaluated"] or len(sizes) != js["class_count"]:
        return f"class sizes {sum(sizes)} do not sum to evaluated {js['evaluated']}"
    for c in js["classes"]:
        rows = np.array([[int(b) for b in r] for r in c["representative"]], dtype=np.uint8)
        rebuilt = np.eye(n, dtype=np.uint8)
        rebuilt[0, :] = 1
        for i in range(1, n - 1):             # the free bits: above the diagonal
            rebuilt[i, i + 1 :] = rows[i, i + 1 :]
        if not np.array_equal(rows, rebuilt):
            return f"representative {c['representative']} is not a family matrix"
    return None


def _census_exhaustive(b: Spec, n: int) -> None:
    def check(stdout: str) -> str | None:
        js = json.loads(stdout)
        digest = hashlib.sha256(stdout.encode())
        return (
            _census_common(js, n)
            or _expect(js["evaluated"] == 1 << (n - 1) * (n - 2) // 2, "not exhaustive")
            or _expect(js["class_count"] == POSET_COUNTS[n], f"{js['class_count']} classes")
            or _expect(digest.hexdigest()[:16] == CENSUS_ANCHORS[n], "census anchor changed")
        )

    # the anchor is over the exact bytes, so this check reads raw stdout
    b.op(["census", "--n", str(n), "--json"], 0, check, raw=True)


def _census_sampled(b: Spec, n: int, samples: int) -> None:
    seed = int(b.rng.integers(0, 2**31))

    def check(js: dict) -> str | None:
        return (
            _census_common(js, n)
            or _expect(js["mode"] == "sample" and js["evaluated"] == samples, "wrong sample")
            or _expect(js["seed"] == seed, "seed not echoed")
        )

    b.op(["census", "--n", str(n), "--sample", str(samples), "--seed", str(seed), "--json"], 0, check)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

def _filter_ops(b: Spec, path: str, star: np.ndarray,
                expect: tuple[int, int] | None = None) -> None:
    """classify, filters --all and filters --maximal on a star table, against the
    brute-force filter set of its dual.  `expect` is a known (filters,
    maximal) count that the brute force itself must reproduce."""
    n = star.shape[0]
    masks = ref.filter_masks(star.T)
    maximal = ref.maximal_masks(masks, n)
    if expect is not None and (len(masks), len(maximal)) != expect:
        raise RuntimeError(f"reference filter count {len(masks)}/{len(maximal)} != {expect}")
    radical = (1 << n) - 1
    for m in maximal:
        radical &= m
    want_all = [ref.members(m) for m in masks]
    want_max = [ref.members(m) for m in maximal]

    def classify(js: dict) -> str | None:
        got = (js["filter_count"], [f["members"] for f in js["maximal_filters"]],
               js["radical"]["members"], js["local"], js["semisimple"])
        want = (len(masks), want_max, ref.members(radical), len(maximal) == 1, radical == 1)
        return _expect(got == want, f"classify {got} != {want}")

    def listed(want: list[list[int]]) -> Callable[[dict], str | None]:
        def check(js: dict) -> str | None:
            got = [f["members"] for f in js["filters"]]
            return _expect(js["count"] == len(want) and got == want,
                           f"{js['count']} filters, expected {len(want)}")
        return check

    b.op(["classify", path, "--json"], 0, classify)
    b.op(["filters", "--all", path, "--json"], 0, listed(want_all))
    b.op(["filters", "--maximal", path, "--json"], 0, listed(want_max))


# ---------------------------------------------------------------------------
# algebra pipeline
# ---------------------------------------------------------------------------

def _pipeline_ops(b: Spec, k: int) -> tuple[str, np.ndarray]:
    """build, verify, props, roundtrip, hasse and iso on a random k x k code,
    plus verify on a corrupted table.  Returns the star table and its path."""
    rng = b.rng
    code = ref.random_code(rng, k, k)
    rows = ref.embedded_rows(code)
    star = ref.star_table(rows)
    n = star.shape[0]
    tag = f"c{k}"
    code_path = b.file(f"{tag}.code", ref.code_text(code))
    star_path = b.file(f"{tag}.alg", ref.alg_text(star, "star"))
    dual_path = b.file(f"{tag}_dot.alg", ref.alg_text(star.T.copy(), "dot"))

    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    relabelled = ref.relabel(star, perm)
    iso_path = b.file(f"{tag}_iso.alg", ref.alg_text(relabelled, "star"))

    # same size, different number of comparable pairs: provably not isomorphic
    while True:
        other = ref.star_table(ref.embedded_rows(ref.random_code(rng, k, k)))
        if (other == 0).sum() != (star == 0).sum():
            break
    other_path = b.file(f"{tag}_other.alg", ref.alg_text(other, "star"))

    corrupt = star.copy()
    x = int(rng.integers(1, n))
    corrupt[x, x] = x                              # breaks x*x = theta
    bad_path = b.file(f"{tag}_bad.alg", ref.alg_text(corrupt, "star"))

    sorted_words = ref.code_text(ref.sort_desc(code)).split()
    props = ref.property_witnesses(star)
    poset_rows = ref.direct_rows(code)
    labels = ["".join(map(str, r)) for r in poset_rows]
    want_covers = {(labels[i], labels[j]) for i, j in ref.covers(poset_rows)}

    def build(text: str) -> str | None:
        kind, table, _ = ref.parse_alg(text)
        return (_expect(kind == "star" and np.array_equal(table, star), "built table differs")
                or _expect(": NOT a filter in the dual algebra" in text, "tail-set verdict"))

    def valid(js: dict) -> str | None:
        return _expect(js["passed"] and js["violations"] == [] and js["n"] == n, "not passed")

    def props_check(js: dict) -> str | None:
        for name, witness in props.items():
            got = js[name]
            if got["holds"] != (witness is None) or got["witness"] != witness:
                return f"{name}: {got} != {witness}"
        return None

    def roundtrip(js: dict) -> str | None:
        return _expect(js["ok"] and js["expected"] == sorted_words
                       and js["recovered"] == sorted_words, "roundtrip mismatch")

    def hasse(js: dict) -> str | None:
        got = {(js["labels"][i], js["labels"][j]) for i, j in js["covers"]}
        return _expect(js["n"] == len(labels) and got == want_covers, "covers differ")

    def iso(js: dict) -> str | None:
        m = np.array(js["mapping"], dtype=np.int64)
        if not js["isomorphic"] or sorted(m.tolist()) != list(range(n)):
            return "no isomorphism returned"
        return _expect(np.array_equal(relabelled[m[:, None], m[None, :]], m[star]),
                       "mapping is not an isomorphism")

    def not_iso(js: dict) -> str | None:
        return _expect(js["isomorphic"] is False and js["mapping"] is None, "reported isomorphic")

    def corrupted(js: dict) -> str | None:
        v = js["violations"]
        if js["passed"] or not v:
            return "corrupted table passed"
        for item in v:
            if not ref.bck_axiom_fails(corrupt, item["axiom"], item["witness"]):
                return f"witness {item} does not violate axiom {item['axiom']}"
        return None

    b.op(["build", "--mode", "embed", code_path], 0, build)
    b.op(["verify", "--kind", "bck", star_path, "--json"], 0, valid)
    b.op(["verify", "--kind", "hilbert", dual_path, "--json"], 0, valid)
    b.op(["props", star_path, "--json"], 0, props_check)
    b.op(["roundtrip", code_path, "--json"], 0, roundtrip)
    b.op(["hasse", code_path, "--json"], 0, hasse)
    b.op(["iso", star_path, iso_path, "--json"], 0, iso)
    b.op(["iso", star_path, other_path, "--json"], 1, not_iso)
    b.op(["verify", "--kind", "bck", bad_path, "--json"], 1, corrupted)
    return star_path, star


def _smoke(b: Spec) -> None:
    _census_exhaustive(b, 4)
    _census_sampled(b, 5, 4)
    _filter_ops(b, *_pipeline_ops(b, 5))


# ---------------------------------------------------------------------------

def build(name: str, seed: int, root: Path) -> Spec:
    """Inputs and ops of workload `name` for `seed`; `root` is the checkout,
    which holds the paper fixtures."""
    b = Spec(np.random.default_rng([seed, WORKLOADS.index(name)]))
    if name == "census":
        for n in (5, 6, 7):
            _census_exhaustive(b, n)
        for n, samples in SAMPLED:
            _census_sampled(b, n, samples)
    elif name == "algebra":
        for n in SEMISIMPLE_N:
            table = ref.star_table(ref.direct_rows(ref.semisimple_code(n)))
            path = b.file(f"semisimple{n}.alg", ref.alg_text(table, "star"))
            _filter_ops(b, path, table, expect=(1 << (n - 1), n - 1))
        for n, bit, expect in ((LOCAL_ZERO_N, 0, ((1 << (LOCAL_ZERO_N - 2)) + 1, 1)),
                               (LOCAL_ONES_N, 1, None)):
            table = ref.star_table(ref.direct_rows(ref.local_code(n, bit)))
            path = b.file(f"local{n}_{bit}.alg", ref.alg_text(table, "star"))
            _filter_ops(b, path, table, expect=expect)
        for i in range(RANDOM_FILTER_CODES):
            table = ref.star_table(ref.direct_rows(ref.random_code(b.rng, 8, 8)))
            _filter_ops(b, b.file(f"random{i}.alg", ref.alg_text(table, "star")), table)
        for fixture in FIXTURES:
            text = (root / "tests" / "fixtures" / fixture).read_text(encoding="utf-8")
            _, table, _ = ref.parse_alg(text)
            _filter_ops(b, b.file(fixture, text), table)
        for k in PIPELINE_SIZES:
            _pipeline_ops(b, k)
    else:
        raise ValueError(f"unknown workload {name!r}")
    _smoke(b)
    return b
