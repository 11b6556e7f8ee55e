"""Command-line surface tying the library together.

Exit codes: 0 success / property true, 1 verification or property false,
2 usage or format errors, 3 an unexpected internal error (one `error:` line,
no traceback), 141 (128 + SIGPIPE) when stdout is closed before the report
is written.  A file argument of `-` reads the `.code` or `.alg` text from
stdin.  All reports are deterministic: elements appear in
canonical index order and filters are sorted by cardinality then bitmask.

A report is written once, by `run_command`, after its command has finished,
so on exit 2 or 3 stdout is empty; every `--json` report is one object whose
first key is `command`.
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


def _filter_json(members, t: OpTable) -> dict:
    idx = sorted(members)
    return {"members": idx, "labels": [t.label(i) for i in idx]}


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report), where the report is the
# `--json` object without its command key, or else the lines of text
# ---------------------------------------------------------------------------

def _cmd_build(args):
    code = parse_code_file(_read_text(args.codefile))
    emb = embed_code(code) if args.mode == "embed" else direct_algebra(code)
    t = emb.algebra
    tail = tail_set_check(emb) if args.mode == "embed" else None
    if args.json:
        return 0, {
            "mode": args.mode,
            "n": t.n,
            "kind": t.kind,
            "theta": 0,
            "labels": list(t.labels),
            "table": t.table.tolist(),
            "dual_table": dualize(t).table.tolist(),
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
    lines = serialize_algebra(t).splitlines()
    origin_pairs = " ".join(f"{t.label(i)}={tag}" for i, tag in enumerate(emb.origins))
    lines.append(f"# origins: {origin_pairs}")
    if tail is not None:
        members, ok, witness = tail
        lines.append(f"# tail elements: {' '.join(t.label(i) for i in emb.tail_elements)}")
        if ok:
            lines.append(f"# tail set {_set_str(members, t)}: a filter in the dual algebra")
        else:
            lines.append(
                f"# tail set {_set_str(members, t)}: NOT a filter in the dual algebra "
                f"(witness {_witness_str(witness, t)})"
            )
    return 0, lines


def _cmd_verify(args):
    t = _load_algebra(args.algfile)
    violations = verify_axioms(t, args.kind)
    code = 1 if violations else 0
    if args.json:
        return code, {
            "kind": args.kind,
            "n": t.n,
            "passed": not violations,
            "violations": [
                {"axiom": axiom, "witness": list(witness)}
                for axiom, witness in violations
            ],
        }
    lines = [f"kind: {args.kind}", f"n: {t.n}", f"passed: {'no' if violations else 'yes'}"]
    for axiom, witness in violations:
        lines.append(f"axiom {axiom} violated at ({_witness_str(witness, t)})")
    return code, lines


def _cmd_props(args):
    t = _load_algebra(args.algfile)
    payload = {"n": t.n}
    lines = [f"n: {t.n}"]
    for name, witness in bck_properties(t).items():
        holds = witness is None
        payload[name] = {"holds": holds, "witness": None if holds else list(witness)}
        verdict = "yes" if holds else f"no (witness {_witness_str(witness, t)})"
        lines.append(f"{name.replace('_', ' ')}: {verdict}")
    return 0, payload if args.json else lines


def _cmd_dual(args):
    d = dualize(_load_algebra(args.algfile))
    if args.json:
        return 0, {
            "kind": d.kind,
            "n": d.n,
            "theta": 0,
            "labels": list(d.labels) if d.labels else None,
            "table": d.table.tolist(),
        }
    return 0, serialize_algebra(d).splitlines()


def _cmd_filters(args):
    t = _load_algebra(args.algfile)
    h = dualize(t) if t.kind == STAR else t
    if args.maximal:
        found = maximal_filters(h)
        title = "maximal filters"
    else:
        found = all_filters(h)
        title = "filters"
    if args.json:
        return 0, {
            "n": h.n,
            "selection": "maximal" if args.maximal else "all",
            "count": len(found),
            "filters": [_filter_json(f, h) for f in found],
        }
    return 0, [f"{title}: {len(found)}", *(_set_str(f, h) for f in found)]


def _cmd_classify(args):
    t = _load_algebra(args.algfile)
    report = classify(t)
    if args.json:
        return 0, {
            "n": t.n,
            "degenerate": report.degenerate,
            "filter_count": report.all_filter_count,
            "maximal_filters": [_filter_json(f, t) for f in report.maximal_filters],
            "radical": _filter_json(report.radical, t),
            "local": None if report.degenerate else report.is_local,
            "semisimple": None if report.degenerate else report.is_semisimple,
        }
    lines = [f"n: {t.n}", f"filters: {report.all_filter_count}"]
    if report.degenerate:
        lines += ["degenerate: single-element algebra, no proper filters", "local: n/a", "semisimple: n/a"]
        return 0, lines
    lines.append(f"maximal filters: {len(report.maximal_filters)}")
    lines += [f"  {_set_str(f, t)}" for f in report.maximal_filters]
    lines.append(f"radical: {_set_str(report.radical, t)}")
    lines.append(f"local: {'yes' if report.is_local else 'no'}")
    lines.append(f"semisimple: {'yes' if report.is_semisimple else 'no'}")
    return 0, lines


def _parse_indices(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--{what} expects comma-separated element indices, got {text!r}") from None


def _cmd_cut(args):
    t = _load_algebra(args.algfile)
    rows = _parse_indices(args.rows, "rows")
    cols = _parse_indices(args.cols, "cols")
    result = cut_code(t, rows, cols)
    if args.json:
        return 0, {
            "rows": list(rows),
            "cols": list(cols),
            "words": list(result.words),
            "collisions": [list(c) for c in result.collisions],
            "code": list(result.code.strings()),
        }
    collisions = [f"# collision: row {dropped} repeats row {kept}" for kept, dropped in result.collisions]
    return 0, [*result.words, *collisions]


def _cmd_roundtrip(args):
    report = roundtrip_check(parse_code_file(_read_text(args.codefile)))
    code = 0 if report.ok else 1
    if args.json:
        return code, {
            "ok": report.ok,
            "expected": list(report.expected.strings()),
            "recovered": list(report.recovered),
            "first_mismatch": report.first_mismatch,
        }
    if report.ok:
        return code, [f"roundtrip: ok ({len(report.recovered)} words recovered)"]
    i = report.first_mismatch
    return code, [
        f"roundtrip: FAILED at word {i}: got {report.recovered[i]}, "
        f"expected {report.expected.strings()[i]}"
    ]


def _cmd_family(args):
    if args.kind == "semisimple":
        if args.bits is not None:
            raise UsageError("--bits applies to the local family only")
        code = semisimple_family(args.n)
    else:
        bits = args.bits if args.bits is not None else "0" * local_family_free_bit_count(args.n)
        code = local_family(args.n, bits)
    if args.json:
        return 0, {
            "kind": args.kind,
            "n": args.n,
            "bits": args.bits,
            "words": list(code.strings()),
        }
    return 0, serialize_code(code).splitlines()


def _cmd_census(args):
    report = census(args.n, sample_count=args.sample, seed=args.seed)
    if args.json:
        return 0, {
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
    met = "yes" if report.bound_met else "no"
    if report.mode == "exhaustive":
        tally = f"{report.total_matrices} matrices"
    else:
        tally = f"sampled {report.evaluated} of {report.total_matrices} matrices (seed {args.seed})"
    return 0, [
        f"n: {report.n}",
        f"free bits: {report.free_bits}",
        f"{tally}, {report.class_count} classes, bound {report.total_matrices}, bound met: {met}",
    ]


def _cmd_hasse(args):
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
        return 0, {
            "n": poset.n,
            "labels": [poset.label(i) for i in range(poset.n)],
            "covers": [list(c) for c in covers],
        }
    if args.format == "text":
        return 0, ["covers:", *(f"{poset.label(lo)} < {poset.label(hi)}" for lo, hi in covers)]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(poset.n):
        label = poset.label(i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    lines += [f"  n{lo} -> n{hi};" for lo, hi in covers]
    lines.append("}")
    return 0, lines


def _cmd_iso(args):
    t1 = _load_algebra(args.algfile1)
    t2 = _load_algebra(args.algfile2)
    mapping = are_isomorphic(t1, t2)
    code = 0 if mapping is not None else 1
    if args.json:
        return code, {
            "isomorphic": mapping is not None,
            "mapping": list(mapping) if mapping is not None else None,
        }
    if mapping is None:
        return code, ["isomorphic: no"]
    pairs = ", ".join(f"{t1.label(i)} -> {t2.label(v)}" for i, v in enumerate(mapping))
    return code, ["isomorphic: yes", f"mapping: {pairs}"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _subcommand(p: argparse.ArgumentParser, func, *positionals: str, out: bool = False) -> None:
    """Finish a subcommand parser once its own options are declared: `--json`
    (in one exclusive group with `--out` when the command can write a file),
    then the positionals.  Options keep their declaration order in usage and
    `--help`, so `--json` stays the last option of every command."""
    group = p
    if out:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--out", help="write the algebra file here instead of stdout")
    group.add_argument("--json", action="store_true")
    for name in positionals:
        p.add_argument(name)
    p.set_defaults(func=func)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bckcodes",
        description="Binary block codes as BCK/Hilbert algebras: build, verify, classify, recover, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an algebra from a code file")
    p.add_argument("--mode", choices=("embed", "direct"), default="embed")
    _subcommand(p, _cmd_build, "codefile", out=True)

    p = sub.add_parser("verify", help="check the axioms of an algebra file")
    p.add_argument("--kind", choices=("bci", "bck", "hilbert"), required=True)
    _subcommand(p, _cmd_verify, "algfile")

    p = sub.add_parser("props", help="commutative/implicative/positive-implicative flags")
    _subcommand(p, _cmd_props, "algfile")

    p = sub.add_parser("dual", help="transpose a table, toggling star/dot")
    _subcommand(p, _cmd_dual, "algfile", out=True)

    p = sub.add_parser("filters", help="enumerate filters of the (dualized) algebra")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", default=True)
    group.add_argument("--maximal", action="store_true")
    _subcommand(p, _cmd_filters, "algfile")

    p = sub.add_parser("classify", help="semisimple/local classification")
    _subcommand(p, _cmd_classify, "algfile")

    p = sub.add_parser("cut", help="read a code back out of a star table")
    p.add_argument("--rows", required=True, help="comma-separated row element indices")
    p.add_argument("--cols", required=True, help="comma-separated column element indices")
    _subcommand(p, _cmd_cut, "algfile")

    p = sub.add_parser("roundtrip", help="embed a code and recover it via cut rows")
    _subcommand(p, _cmd_roundtrip, "codefile")

    p = sub.add_parser("family", help="emit a semisimple- or local-family code")
    p.add_argument("--kind", choices=("semisimple", "local"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bits", help="free-bit assignment for the local family")
    _subcommand(p, _cmd_family)

    p = sub.add_parser("census", help="isomorphism census of the matrix family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, help="sample this many assignments instead of exhausting")
    p.add_argument("--seed", type=int, default=0)
    _subcommand(p, _cmd_census)

    p = sub.add_parser("hasse", help="covering relation of a code or algebra file")
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    _subcommand(p, _cmd_hasse, "file")

    p = sub.add_parser("iso", help="test two algebra files for isomorphism")
    _subcommand(p, _cmd_iso, "algfile1", "algfile2")

    return parser


def run_command(argv) -> int:
    """Parse argv, run the subcommand, then write its report: the one place
    that writes to stdout or `--out`, so a command that fails writes nothing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.func(args)
        if args.json:
            report = [json.dumps({"command": args.command, **report}, ensure_ascii=False, indent=2)]
        _write_text(getattr(args, "out", None), "".join(f"{line}\n" for line in report))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


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
