"""Command-line surface tying the library together.

Exit codes: 0 success / property true, 1 verification or property false,
2 usage or format errors, 3 an unexpected internal error (one `error:` line,
no traceback), 141 (128 + SIGPIPE) when stdout is closed before the report
is written.  A file argument of `-` reads the `.code` or `.alg` text from
stdin.  All reports are deterministic: elements appear in
canonical index order and filters are sorted by cardinality then bitmask.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import are_isomorphic, bck_order, bck_properties, dualize, verify_axioms
from .codegen import census, cut_code, local_family, local_family_free_bit_count, roundtrip_check, semisimple_family
from .embedding import carrier_rows, direct_algebra, embed_code, tail_set_check
from .errors import UsageError
from .fileio import parse_algebra_file, parse_code_file, serialize_algebra, serialize_code, sniff_format
from .filters import all_filters, classify, maximal_filters
from .model import DOT, STAR, OpTable, Poset, row_strings
from .posets import domination_leq, hasse_covers

EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write to `path`, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _load_algebra(path: str) -> OpTable:
    return parse_algebra_file(_read_text(path))


def _set_str(members, t: OpTable) -> str:
    return "{" + ", ".join(t.label(i) for i in sorted(members)) + "}"


def _witness_str(witness, t: OpTable) -> str:
    names = ("x", "y", "z")
    return ", ".join(f"{names[k]}={t.label(v)}" for k, v in enumerate(witness))


def _emit_json(payload) -> None:
    print(json.dumps(payload, ensure_ascii=False, indent=2))


def _filter_json(members, t: OpTable) -> dict:
    idx = sorted(members)
    return {"members": idx, "labels": [t.label(i) for i in idx]}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    code = parse_code_file(_read_text(args.codefile))
    emb = embed_code(code) if args.mode == "embed" else direct_algebra(code)
    tail = None
    if args.mode == "embed":
        tail = tail_set_check(emb)
    if args.json:
        payload = {
            "command": "build",
            "mode": args.mode,
            "n": emb.algebra.n,
            "kind": emb.algebra.kind,
            "theta": 0,
            "labels": list(emb.algebra.labels),
            "table": emb.algebra.table.tolist(),
            "dual_table": dualize(emb.algebra).table.tolist(),
            "origins": list(emb.origins),
            "code_row_elements": list(emb.code_row_elements),
            "tail_elements": list(emb.tail_elements),
            "sort_permutation": list(emb.sort_permutation),
            "tail_set": None
            if tail is None
            else {
                "members": sorted(tail[0]),
                "is_filter": tail[1],
                "witness": list(tail[2]) if tail[2] is not None else None,
            },
        }
        _emit_json(payload)
        return 0
    text = serialize_algebra(emb.algebra)
    lines = [text.rstrip("\n")]
    origin_pairs = " ".join(
        f"{emb.algebra.label(i)}={tag}" for i, tag in enumerate(emb.origins)
    )
    lines.append(f"# origins: {origin_pairs}")
    if tail is not None:
        t = emb.algebra
        members, ok, witness = tail
        lines.append(f"# tail elements: {' '.join(t.label(i) for i in emb.tail_elements)}")
        if ok:
            lines.append(f"# tail set {_set_str(members, t)}: a filter in the dual algebra")
        else:
            lines.append(
                f"# tail set {_set_str(members, t)}: NOT a filter in the dual algebra "
                f"(witness {_witness_str(witness, t)})"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    t = _load_algebra(args.algfile)
    violations = verify_axioms(t, args.kind)
    if args.json:
        _emit_json(
            {
                "command": "verify",
                "kind": args.kind,
                "n": t.n,
                "passed": not violations,
                "violations": [
                    {"axiom": axiom, "witness": list(witness)}
                    for axiom, witness in violations
                ],
            }
        )
    else:
        print(f"kind: {args.kind}")
        print(f"n: {t.n}")
        print(f"passed: {'no' if violations else 'yes'}")
        for axiom, witness in violations:
            print(f"axiom {axiom} violated at ({_witness_str(witness, t)})")
    return 1 if violations else 0


def _cmd_props(args) -> int:
    t = _load_algebra(args.algfile)
    payload = {"command": "props", "n": t.n}
    lines = [f"n: {t.n}"]
    for name, witness in bck_properties(t).items():
        holds = witness is None
        payload[name] = {"holds": holds, "witness": None if holds else list(witness)}
        verdict = "yes" if holds else f"no (witness {_witness_str(witness, t)})"
        lines.append(f"{name.replace('_', ' ')}: {verdict}")
    if args.json:
        _emit_json(payload)
    else:
        print("\n".join(lines))
    return 0


def _cmd_dual(args) -> int:
    t = _load_algebra(args.algfile)
    d = dualize(t)
    if args.json:
        _emit_json(
            {
                "command": "dual",
                "kind": d.kind,
                "n": d.n,
                "theta": 0,
                "labels": list(d.labels) if d.labels else None,
                "table": d.table.tolist(),
            }
        )
        return 0
    _write_text(args.out, serialize_algebra(d))
    return 0


def _cmd_filters(args) -> int:
    t = _load_algebra(args.algfile)
    h = dualize(t) if t.kind == STAR else t
    if args.maximal:
        found = maximal_filters(h)
        title = "maximal filters"
    else:
        found = all_filters(h)
        title = "filters"
    if args.json:
        _emit_json(
            {
                "command": "filters",
                "n": h.n,
                "selection": "maximal" if args.maximal else "all",
                "count": len(found),
                "filters": [_filter_json(f, h) for f in found],
            }
        )
        return 0
    print(f"{title}: {len(found)}")
    for f in found:
        print(_set_str(f, h))
    return 0


def _cmd_classify(args) -> int:
    t = _load_algebra(args.algfile)
    report = classify(t)
    if args.json:
        _emit_json(
            {
                "command": "classify",
                "n": t.n,
                "degenerate": report.degenerate,
                "filter_count": report.all_filter_count,
                "maximal_filters": [_filter_json(f, t) for f in report.maximal_filters],
                "radical": _filter_json(report.radical, t),
                "local": None if report.degenerate else report.is_local,
                "semisimple": None if report.degenerate else report.is_semisimple,
            }
        )
        return 0
    print(f"n: {t.n}")
    print(f"filters: {report.all_filter_count}")
    if report.degenerate:
        print("degenerate: single-element algebra, no proper filters")
        print("local: n/a")
        print("semisimple: n/a")
        return 0
    print(f"maximal filters: {len(report.maximal_filters)}")
    for f in report.maximal_filters:
        print(f"  {_set_str(f, t)}")
    print(f"radical: {_set_str(report.radical, t)}")
    print(f"local: {'yes' if report.is_local else 'no'}")
    print(f"semisimple: {'yes' if report.is_semisimple else 'no'}")
    return 0


def _parse_indices(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--{what} expects comma-separated element indices, got {text!r}") from None


def _cmd_cut(args) -> int:
    t = _load_algebra(args.algfile)
    rows = _parse_indices(args.rows, "rows")
    cols = _parse_indices(args.cols, "cols")
    result = cut_code(t, rows, cols)
    if args.json:
        _emit_json(
            {
                "command": "cut",
                "rows": list(rows),
                "cols": list(cols),
                "words": list(result.words),
                "collisions": [list(c) for c in result.collisions],
                "code": list(result.code.strings()),
            }
        )
        return 0
    for w in result.words:
        print(w)
    for kept, dropped in result.collisions:
        print(f"# collision: row {dropped} repeats row {kept}")
    return 0


def _cmd_roundtrip(args) -> int:
    code = parse_code_file(_read_text(args.codefile))
    report = roundtrip_check(code)
    if args.json:
        _emit_json(
            {
                "command": "roundtrip",
                "ok": report.ok,
                "expected": list(report.expected.strings()),
                "recovered": list(report.recovered),
                "first_mismatch": report.first_mismatch,
            }
        )
    elif report.ok:
        print(f"roundtrip: ok ({len(report.recovered)} words recovered)")
    else:
        i = report.first_mismatch
        print(
            f"roundtrip: FAILED at word {i}: got {report.recovered[i]}, "
            f"expected {report.expected.strings()[i]}"
        )
    return 0 if report.ok else 1


def _cmd_family(args) -> int:
    if args.kind == "semisimple":
        if args.bits is not None:
            raise UsageError("--bits applies to the local family only")
        code = semisimple_family(args.n)
    else:
        bits = args.bits if args.bits is not None else "0" * local_family_free_bit_count(args.n)
        code = local_family(args.n, bits)
    if args.json:
        _emit_json(
            {
                "command": "family",
                "kind": args.kind,
                "n": args.n,
                "bits": args.bits,
                "words": list(code.strings()),
            }
        )
        return 0
    sys.stdout.write(serialize_code(code))
    return 0


def _cmd_census(args) -> int:
    report = census(args.n, sample_count=args.sample, seed=args.seed)
    if args.json:
        _emit_json(
            {
                "command": "census",
                "n": report.n,
                "free_bits": report.free_bits,
                "total_matrices": report.total_matrices,
                "evaluated": report.evaluated,
                "mode": report.mode,
                "seed": args.seed if report.mode == "sample" else None,
                "class_count": report.class_count,
                "bound": report.total_matrices,
                "bound_met": report.bound_met,
                "classes": [
                    {"size": size, "representative": list(rep)}
                    for size, rep in zip(report.class_sizes, report.class_representatives)
                ],
            }
        )
        return 0
    print(f"n: {report.n}")
    print(f"free bits: {report.free_bits}")
    met = "yes" if report.bound_met else "no"
    if report.mode == "exhaustive":
        print(
            f"{report.total_matrices} matrices, {report.class_count} classes, "
            f"bound {report.total_matrices}, bound met: {met}"
        )
    else:
        print(
            f"sampled {report.evaluated} of {report.total_matrices} matrices (seed {args.seed}), "
            f"{report.class_count} classes, bound {report.total_matrices}, bound met: {met}"
        )
    return 0


def _cmd_hasse(args) -> int:
    text = _read_text(args.file)
    if sniff_format(text) == "algebra":
        t = parse_algebra_file(text)
        if t.kind == DOT:
            t = dualize(t)
        poset = bck_order(t)
    else:
        rows = carrier_rows(parse_code_file(text))[0]
        poset = Poset(leq=domination_leq(rows), labels=row_strings(rows))
    covers = hasse_covers(poset)
    if args.json:
        _emit_json(
            {
                "command": "hasse",
                "n": poset.n,
                "labels": [poset.label(i) for i in range(poset.n)],
                "covers": [list(c) for c in covers],
            }
        )
        return 0
    if args.format == "text":
        print("covers:")
        for lo, hi in covers:
            print(f"{poset.label(lo)} < {poset.label(hi)}")
        return 0
    print("digraph hasse {")
    print("  rankdir=BT;")
    for i in range(poset.n):
        label = poset.label(i).replace("\\", "\\\\").replace('"', '\\"')
        print(f'  n{i} [label="{label}"];')
    for lo, hi in covers:
        print(f"  n{lo} -> n{hi};")
    print("}")
    return 0


def _cmd_iso(args) -> int:
    t1 = _load_algebra(args.algfile1)
    t2 = _load_algebra(args.algfile2)
    mapping = are_isomorphic(t1, t2)
    if args.json:
        _emit_json(
            {
                "command": "iso",
                "isomorphic": mapping is not None,
                "mapping": list(mapping) if mapping is not None else None,
            }
        )
    elif mapping is not None:
        print("isomorphic: yes")
        pairs = ", ".join(f"{t1.label(i)} -> {t2.label(v)}" for i, v in enumerate(mapping))
        print(f"mapping: {pairs}")
    else:
        print("isomorphic: no")
    return 0 if mapping is not None else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bckcodes",
        description="Binary block codes as BCK/Hilbert algebras: build, verify, classify, recover, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an algebra from a code file")
    p.add_argument("--mode", choices=("embed", "direct"), default="embed")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--out", help="write the algebra file here instead of stdout")
    group.add_argument("--json", action="store_true")
    p.add_argument("codefile")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check the axioms of an algebra file")
    p.add_argument("--kind", choices=("bci", "bck", "hilbert"), required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("algfile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("props", help="commutative/implicative/positive-implicative flags")
    p.add_argument("--json", action="store_true")
    p.add_argument("algfile")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("dual", help="transpose a table, toggling star/dot")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--out", help="write the algebra file here instead of stdout")
    group.add_argument("--json", action="store_true")
    p.add_argument("algfile")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("filters", help="enumerate filters of the (dualized) algebra")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", default=True)
    group.add_argument("--maximal", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("algfile")
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("classify", help="semisimple/local classification")
    p.add_argument("--json", action="store_true")
    p.add_argument("algfile")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cut", help="read a code back out of a star table")
    p.add_argument("--rows", required=True, help="comma-separated row element indices")
    p.add_argument("--cols", required=True, help="comma-separated column element indices")
    p.add_argument("--json", action="store_true")
    p.add_argument("algfile")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("roundtrip", help="embed a code and recover it via cut rows")
    p.add_argument("--json", action="store_true")
    p.add_argument("codefile")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("family", help="emit a semisimple- or local-family code")
    p.add_argument("--kind", choices=("semisimple", "local"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bits", help="free-bit assignment for the local family")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("census", help="isomorphism census of the matrix family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, help="sample this many assignments instead of exhausting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("hasse", help="covering relation of a code or algebra file")
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("iso", help="test two algebra files for isomorphism")
    p.add_argument("--json", action="store_true")
    p.add_argument("algfile1")
    p.add_argument("algfile2")
    p.set_defaults(func=_cmd_iso)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: end quietly, and point stdout at devnull so
        # the flush at interpreter shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except Exception as exc:
        # a crash must not read as "property false" (exit 1)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
