import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bckcodes import cli, codegen
from bckcodes.cli import run_command
from bckcodes.codegen import roundtrip_check

from conftest import FIXTURES

# child interpreters import the same bckcodes as this process, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestBuild:
    def test_direct_matches_golden_algebra(self, capsys):
        code, out, _ = run(capsys, "build", "--mode", "direct", fx("local5.code"))
        assert code == 0
        golden = (FIXTURES / "local5_star.alg").read_text(encoding="utf-8")
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"
        assert body == golden

    def test_embed_matches_golden_algebra(self, capsys):
        code, out, _ = run(capsys, "build", "--mode", "embed", fx("embed9.code"))
        assert code == 0
        golden = (FIXTURES / "embed9_star.alg").read_text(encoding="utf-8")
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"
        assert body == golden

    def test_embed_surfaces_tail_set_verdict(self, capsys):
        _, out, _ = run(capsys, "build", "--mode", "embed", fx("embed9.code"))
        assert "NOT a filter" in out
        assert "x=w8, y=w2" in out

    def test_embed_json_report(self, capsys):
        code, out, _ = run(capsys, "build", "--mode", "embed", "--json", fx("embed9.code"))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 9
        assert payload["tail_set"]["is_filter"] is False
        assert payload["tail_set"]["witness"] == [7, 1]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.alg"
        code, out, _ = run(
            capsys, "build", "--mode", "direct", "--out", str(target), fx("semisimple4.code")
        )
        assert code == 0 and out == ""
        golden = (FIXTURES / "semisimple4_star.alg").read_text(encoding="utf-8")
        body = "\n".join(
            l for l in target.read_text(encoding="utf-8").splitlines() if not l.startswith("#")
        ) + "\n"
        assert body == golden


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "bck", fx("local5_star.alg"))
        assert code == 0
        assert "passed: yes" in out

    def test_fail_with_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("kind star\nn 2\ntheta 0\n0 0\n1 1\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--kind", "bck", str(bad))
        assert code == 1
        assert "passed: no" in out
        assert "axiom 3" in out

    def test_hilbert_on_dot(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "hilbert", fx("semisimple4_dot.alg"))
        assert code == 0

    def test_orientation_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--kind", "hilbert", fx("local5_star.alg"))
        assert code == 2
        assert "error:" in err


class TestClassifyAndFilters:
    def test_build_then_classify_chain(self, capsys, tmp_path):
        alg = tmp_path / "demo.alg"
        code, _, _ = run(
            capsys, "build", "--mode", "direct", "--out", str(alg), fx("local5.code")
        )
        assert code == 0
        code, out, _ = run(capsys, "classify", str(alg))
        assert code == 0
        assert "local: yes" in out
        assert "semisimple: no" in out

    def test_classify_semi4(self, capsys):
        code, out, _ = run(capsys, "classify", fx("semisimple4_star.alg"))
        assert code == 0
        assert "semisimple: yes" in out
        assert "local: no" in out
        assert "radical: {θ}" in out

    def test_filters_all(self, capsys):
        code, out, _ = run(capsys, "filters", "--all", fx("local5_dot.alg"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "filters: 6"
        assert lines[1] == "{θ}"
        assert lines[-1] == "{θ, a, b, c, d}"

    def test_filters_maximal_from_star_input(self, capsys):
        code, out, _ = run(capsys, "filters", "--maximal", fx("local5_star.alg"))
        assert code == 0
        assert out.splitlines() == ["maximal filters: 1", "{θ, a, b, c}"]

    def test_filters_json(self, capsys):
        code, out, _ = run(capsys, "filters", "--maximal", "--json", fx("semisimple4_star.alg"))
        payload = json.loads(out)
        assert payload["count"] == 3
        assert payload["filters"][0]["labels"] == ["θ", "a", "b"]


    def test_filter_commands_leave_stderr_empty_on_17_chain(self, capsys, tmp_path):
        code_path, alg = tmp_path / "chain17.code", tmp_path / "chain17.alg"
        rc, out, _ = run(capsys, "family", "--kind", "local", "--n", "17", "--bits", "1" * 105)
        assert rc == 0
        code_path.write_text(out, encoding="utf-8")
        assert run(capsys, "build", "--mode", "direct", "--out", str(alg), str(code_path))[0] == 0
        # work within FILTER_STATE_BUDGET writes nothing to stderr
        expected = {
            ("filters", "--all"): "filters: 17",
            ("filters", "--maximal"): "maximal filters: 1",
            ("classify",): "n: 17",
        }
        for argv, first in expected.items():
            rc, out, err = run(capsys, *argv, str(alg))
            assert rc == 0
            assert err == ""
            assert out.splitlines()[0] == first


class TestPropsDualIso:
    def test_props(self, capsys):
        code, out, _ = run(capsys, "props", fx("local5_star.alg"))
        assert code == 0
        assert "positive implicative: yes" in out
        assert "commutative: no" in out

    def test_dual_matches_golden(self, capsys):
        code, out, _ = run(capsys, "dual", fx("local5_star.alg"))
        assert code == 0
        assert out == (FIXTURES / "local5_dot.alg").read_text(encoding="utf-8")

    def test_dual_roundtrip(self, capsys, tmp_path):
        mid = tmp_path / "dot.alg"
        run(capsys, "dual", "--out", str(mid), fx("embed9_star.alg"))
        code, out, _ = run(capsys, "dual", str(mid))
        assert code == 0
        assert out == (FIXTURES / "embed9_star.alg").read_text(encoding="utf-8")

    def test_iso_self(self, capsys):
        code, out, _ = run(capsys, "iso", fx("local5_star.alg"), fx("local5_star.alg"))
        assert code == 0
        assert "isomorphic: yes" in out
        assert "mapping:" in out

    def test_iso_negative(self, capsys, tmp_path):
        chain = tmp_path / "chain3.alg"
        chain.write_text("kind star\nn 3\ntheta 0\n0 0 0\n1 0 0\n2 2 0\n", encoding="utf-8")
        anti = tmp_path / "anti3.alg"
        anti.write_text("kind star\nn 3\ntheta 0\n0 0 0\n1 0 1\n2 2 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "iso", str(chain), str(anti))
        assert code == 1
        assert "isomorphic: no" in out

    def test_iso_rejects_invalid_table(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("kind star\nn 2\ntheta 0\n1 0\n1 0\n", encoding="utf-8")
        code, out, err = run(capsys, "iso", str(bad), fx("local5_star.alg"))
        assert code == 2 and out == ""
        assert err.startswith("error: table is not a BCK-algebra (axiom ")


class TestCutRoundtripFamily:
    def test_cut_recovers_code(self, capsys):
        code, out, _ = run(
            capsys, "cut", "--rows", "1,2,3,4", "--cols", "5,6,7,8", fx("embed9_star.alg")
        )
        assert code == 0
        assert out.splitlines() == ["0011", "0010", "0001", "0000"]

    def test_cut_reports_collisions(self, capsys):
        code, out, _ = run(
            capsys, "cut", "--rows", "1,2", "--cols", "0", fx("embed9_star.alg")
        )
        assert code == 0
        assert "# collision: row 1 repeats row 0" in out

    def test_roundtrip_ok(self, capsys):
        code, out, _ = run(capsys, "roundtrip", fx("embed9.code"))
        assert code == 0
        assert "roundtrip: ok" in out

    def test_family_semisimple(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "semisimple", "--n", "4")
        assert code == 0
        assert out == (FIXTURES / "semisimple4.code").read_text(encoding="utf-8")

    def test_family_local_with_bits(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "local", "--n", "5", "--bits", "011")
        assert code == 0
        assert out == (FIXTURES / "local5.code").read_text(encoding="utf-8")

    def test_family_bits_on_semisimple_rejected(self, capsys):
        code, _, err = run(capsys, "family", "--kind", "semisimple", "--n", "4", "--bits", "1")
        assert code == 2
        assert "error:" in err


class TestCensusCli:
    def test_census_summary_line(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "4")
        assert code == 0
        assert "8 matrices, 5 classes, bound 8, bound met: no" in out

    def test_census_jobs_byte_identical(self, capsys, monkeypatch):
        """The keying threads follow the usable CPUs; the report does not.
        n = 8 keys two chunks per call, so three CPUs start threads."""
        outs = []
        for cpus in (1, 3):
            monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
            outs.append(run(capsys, "census", "--n", "8"))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3", "--json")
        payload = json.loads(out)
        assert payload["class_count"] == 2
        assert payload["bound_met"] is True
        assert len(payload["classes"]) == 2

    def test_census_sample(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "8", "--sample", "20", "--seed", "3")
        assert code == 0
        assert "sampled 20 of 2097152 matrices (seed 3)" in out

    def test_exhaustive_too_large(self, capsys):
        code, _, err = run(capsys, "census", "--n", "9")
        assert code == 2
        assert "sampling" in err


CENSUS_ANCHORS = {
    ("--n", "4"): "f2865471451ebdbe",
    ("--n", "5"): "d36b3f97be0bab59",
    ("--n", "6"): "1c1e93d7052f3e49",
    ("--n", "7"): "9fb4060a23a84f8f",
    ("--n", "8"): "6f4e514a05954988",
    ("--n", "8", "--sample", "40", "--seed", "7"): "5e5a3ab7d17edd81",
    ("--n", "9", "--sample", "10", "--seed", "1"): "bdd8a1868a43d15c",
    ("--n", "9", "--sample", "200", "--seed", "1"): "727af43db65ffe7b",
    # a seed of three 32-bit words, and 108 bits, not a whole number of draws
    ("--n", "10", "--sample", "3", "--seed", "18446744073709551621"): "410b654dfdace7c7",
    # more samples than one batch
    ("--n", "12", "--sample", "5000", "--seed", "2"): "c8d0cd1c3bfc1859",
    # the widest sample: 105 free bits, rows of 16 bits
    ("--n", "16", "--sample", "2000", "--seed", "3"): "0fc0c9719ffa6ba2",
}


class TestCensusAnchors:
    """sha256[:16] of `census ... --json`: the byte-identity contract."""

    def census_sha(self, capsys, *argv):
        code, out, _ = run(capsys, "census", *argv, "--json")
        assert code == 0
        return hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]

    @pytest.mark.parametrize("argv", list(CENSUS_ANCHORS), ids=" ".join)
    def test_anchor(self, capsys, argv):
        assert self.census_sha(capsys, *argv) == CENSUS_ANCHORS[argv]

    # the keying threads are sized from the usable CPUs, here 1 and 3
    @pytest.mark.parametrize("n", ["5", "6", "7"])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_anchor_any_jobs(self, capsys, monkeypatch, n, cpus):
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
        assert self.census_sha(capsys, "--n", n) == CENSUS_ANCHORS[("--n", n)]

    @pytest.mark.parametrize(
        "argv", [a for a in CENSUS_ANCHORS if a[1:] not in (("5",), ("6",), ("7",))], ids=" ".join
    )
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_other_anchors_any_jobs(self, capsys, monkeypatch, argv, cpus):
        monkeypatch.setattr(codegen, "_usable_cpus", lambda: cpus)
        assert self.census_sha(capsys, *argv) == CENSUS_ANCHORS[argv]


# sha256[:16] of `hasse` on each fixture, per format; the star and dot
# tables of one algebra give one report
HASSE_ANCHORS = {
    "embed9.code": {"--json": "ccf834892e1e79e1", "dot": "01ada938cdfff096", "text": "244b0c47c386c89a"},
    "embed9.alg": {"--json": "12e1b3219953d849", "dot": "f6af26a10bce2b1f", "text": "7841cf7bf57c2a51"},
    "local5.code": {"--json": "b5782cd828eb16a9", "dot": "cf3dbe11dda988ae", "text": "8391df8730cfabeb"},
    "local5.alg": {"--json": "4af5d01ce21932cb", "dot": "86adc03fdbac6b5c", "text": "32bd4b858be34af9"},
    "semisimple4.code": {"--json": "772caf0b918f2f9a", "dot": "990faf5f21f46103", "text": "d6dc3d0d6511c8d5"},
    "semisimple4.alg": {"--json": "1541bb701d854935", "dot": "150f3d9e21b75d58", "text": "0ee68aa90b335eb5"},
}


class TestHasse:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir() if p.is_file()))
    @pytest.mark.parametrize("fmt", ["--json", "dot", "text"])
    def test_fixture_anchor(self, capsys, name, fmt):
        code, out, err = run(capsys, "hasse", *([fmt] if fmt == "--json" else ["--format", fmt]), fx(name))
        assert (code, err) == (0, "")
        anchor = HASSE_ANCHORS[name.replace("_star", "").replace("_dot", "")][fmt]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == anchor

    def test_dot_output_deterministic(self, capsys):
        code, out1, _ = run(capsys, "hasse", fx("semisimple4.code"))
        code2, out2, _ = run(capsys, "hasse", fx("semisimple4.code"))
        assert code == code2 == 0
        assert out1 == out2
        assert out1.startswith("digraph hasse {")
        assert '  n0 [label="1111"];' in out1
        assert "  n0 -> n1;" in out1

    def test_text_output_on_algebra_file(self, capsys):
        code, out, _ = run(capsys, "hasse", "--format", "text", fx("local5_star.alg"))
        assert code == 0
        assert out.splitlines() == [
            "covers:",
            "θ < a",
            "θ < b",
            "a < c",
            "b < c",
            "c < d",
        ]

    def test_code_file_gets_theta_adjoined(self, capsys, tmp_path):
        path = tmp_path / "pair.code"
        path.write_text("01\n10\n", encoding="utf-8")
        code, out, _ = run(capsys, "hasse", "--format", "text", str(path))
        assert code == 0
        assert out.splitlines() == ["covers:", "11 < 10", "11 < 01"]

    def test_dot_labels_are_escaped(self, capsys, tmp_path):
        path = tmp_path / "chain.alg"
        path.write_text(
            'kind star\nn 3\ntheta 0\nlabels t a"b c\\d\n0 0 0\n1 0 0\n2 2 0\n', encoding="utf-8"
        )
        code, out, _ = run(capsys, "hasse", str(path))
        assert code == 0
        assert '  n1 [label="a\\"b"];' in out
        assert '  n2 [label="c\\\\d"];' in out
        # text and --json print the labels as they are
        _, out, _ = run(capsys, "hasse", "--format", "text", str(path))
        assert out.splitlines() == ["covers:", 't < a"b', 'a"b < c\\d']
        _, out, _ = run(capsys, "hasse", "--json", str(path))
        assert json.loads(out)["labels"] == ["t", 'a"b', "c\\d"]


class TestErrorsAndExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "census", "--n", "4", "--bogus")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_format_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("11\n111\n", encoding="utf-8")
        code, _, err = run(capsys, "roundtrip", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/x.alg")
        assert code == 2

    def test_internal_error_exits_3_without_traceback(self, capsys, monkeypatch):
        def crash(argv):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_command", crash)
        monkeypatch.setattr(sys, "argv", ["bckcodes", "census", "--n", "4"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: internal error: RuntimeError: boom"]
        assert "Traceback" not in err

    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch):
        argv = ["bckcodes", "census", "--n", "5", "--sample", "3", "--seed", "-1"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    # numpy refuses both shapes: 3e20 cells pass no dimension check, and
    # 1.05e18 bytes are past any address space, so neither is allocated
    @pytest.mark.parametrize("n,count", [("4", "100000000000000000000"), ("16", "10000000000000000")])
    def test_impossible_sample_is_a_usage_error(self, capsys, monkeypatch, n, count):
        monkeypatch.setattr(sys, "argv", ["bckcodes", "census", "--n", n, "--sample", count])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        free = (int(n) - 1) * (int(n) - 2) // 2
        assert out == ""
        assert err == f"error: a sample of {count} matrices with {free} free bits does not fit in memory\n"

    @pytest.mark.parametrize("bits", ["a", " 1"])
    def test_non_binary_free_bits_are_a_usage_error(self, capsys, monkeypatch, bits):
        monkeypatch.setattr(sys, "argv", ["bckcodes", "family", "--kind", "local", "--n", "4", "--bits", bits])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,name", [("build", "local5.code"), ("dual", "local5_star.alg")]
    )
    def test_out_with_json_is_a_usage_error(self, capsys, tmp_path, command, name):
        target = tmp_path / "o.alg"
        code, out, err = run(capsys, command, "--json", "--out", str(target), fx(name))
        assert code == 2
        assert out == "" and "not allowed with" in err
        assert not target.exists()


    @pytest.mark.parametrize(
        "command,name", [("build", "local5.code"), ("dual", "local5_star.alg")]
    )
    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    def test_unwritable_out_is_a_usage_error(self, capsys, monkeypatch, tmp_path, command, name, target):
        out_path = tmp_path if target == "directory" else tmp_path / "missing" / "o.alg"
        monkeypatch.setattr(sys, "argv", ["bckcodes", command, "--out", str(out_path), fx(name)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out_path}: ")
        assert "Traceback" not in err


class TestStdinInput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["build", "--mode", "embed", "--json"], "embed9.code"),
            (["classify", "--json"], "local5_star.alg"),
        ],
    )
    def test_dash_reads_stdin(self, capsys, monkeypatch, argv, name):
        from_file = run(capsys, *argv, fx(name))
        monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / name).read_text(encoding="utf-8")))
        assert run(capsys, *argv, "-") == from_file
        assert from_file[0] == 0

    def test_second_dash_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "local5_star.alg").read_text(encoding="utf-8")))
        assert run(capsys, "iso", "-", "-") == (
            2,
            "",
            "error: stdin can be read only once: at most one of the two files may be '-'\n",
        )


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "bckcodes.cli", "census", "--n", "3"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert out.returncode == 0
        assert "2 matrices, 2 classes, bound 2, bound met: yes" in out.stdout

    def test_module_invocation_matches_in_process(self, capsys):
        argv = ["census", "--n", "4", "--json"]
        assert run_command(argv) == 0
        in_process = capsys.readouterr().out
        out = subprocess.run(
            [sys.executable, "-m", "bckcodes.cli", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == in_process

    def test_closed_stdout_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "bckcodes.cli", "census", "--n", "4", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
        proc.stdout.close()  # before the child has imported anything, let alone written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == ""  # in particular no Traceback


GUARD_SCRIPT = """
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
from bckcodes.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run_command(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


class TestModuleGuard:
    """No command loads numpy.random, numpy.ma or a process pool.  Measured
    against what `import numpy` alone loads, which includes numpy.random
    and numpy.ma before numpy 2."""

    @pytest.fixture(scope="class")
    def loaded(self):
        argvs = [
            ["census", "--n", "9", "--sample", "10", "--seed", "1", "--json"],
            ["census", "--n", "6", "--json"],
            ["census", "--n", "12", "--sample", "5000", "--seed", "2", "--json"],  # two chunks
            ["build", "--mode", "embed", fx("embed9.code")],
            ["classify", fx("local5_dot.alg")],
            ["iso", fx("local5_star.alg"), fx("local5_star.alg")],
            ["verify", "--kind", "bck", fx("semisimple4_star.alg")],
            ["props", fx("local5_star.alg")],
            ["filters", "--maximal", fx("embed9_dot.alg")],
            ["roundtrip", fx("embed9.code")],
            ["hasse", fx("local5.code")],
        ]
        out = subprocess.run(
            [sys.executable, "-c", GUARD_SCRIPT, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert out.returncode == 0, out.stderr
        codes, loaded = json.loads(out.stdout)
        assert codes == [0] * len(argvs)
        return loaded

    def test_commands_load_neither_numpy_random_nor_numpy_ma(self, loaded):
        assert [m for m in loaded if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])] == []

    def test_commands_load_no_process_pool(self, loaded):
        pools = ("multiprocessing", "concurrent.futures.process")
        assert [m for m in loaded if m.startswith(pools)] == []


def pinned(payload) -> str:
    """The exact bytes of a `--json` report: indent 2, labels unescaped."""
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def alg_file(tmp_path, text: str) -> str:
    path = tmp_path / "probe.alg"
    path.write_text(text, encoding="utf-8")
    return str(path)


# x*y = max(x - y, 0) on {0, 1, 2}: commutative, not implicative, not
# positive implicative
TRUNCATED_SUBTRACTION = "kind star\nn 3\ntheta 0\n0 0 0\n1 0 0\n2 1 0\n"


class TestJsonReports:
    """Whole `--json` reports, byte for byte."""

    def test_verify_pass(self, capsys):
        code, out, err = run(capsys, "verify", "--kind", "bck", "--json", fx("local5_star.alg"))
        assert (code, err) == (0, "")
        assert out == pinned(
            {"command": "verify", "kind": "bck", "n": 5, "passed": True, "violations": []}
        )

    def test_verify_one_corrupted_cell(self, capsys, tmp_path):
        path = alg_file(tmp_path, "kind star\nn 2\ntheta 0\n0 0\n1 1\n")
        code, out, _ = run(capsys, "verify", "--kind", "bck", "--json", path)
        assert code == 1
        assert out == pinned(
            {
                "command": "verify",
                "kind": "bck",
                "n": 2,
                "passed": False,
                "violations": [
                    {"axiom": 1, "witness": [1, 0, 0]},
                    {"axiom": 2, "witness": [1, 0]},
                    {"axiom": 3, "witness": [1]},
                ],
            }
        )

    def test_props_local5(self, capsys):
        code, out, _ = run(capsys, "props", "--json", fx("local5_star.alg"))
        assert code == 0
        assert out == pinned(
            {
                "command": "props",
                "n": 5,
                "commutative": {"holds": False, "witness": [1, 3]},
                "implicative": {"holds": False, "witness": [1, 3]},
                "positive_implicative": {"holds": True, "witness": None},
            }
        )

    def test_props_truncated_subtraction(self, capsys, tmp_path):
        path = alg_file(tmp_path, TRUNCATED_SUBTRACTION)
        code, out, _ = run(capsys, "props", "--json", path)
        assert code == 0
        assert out == pinned(
            {
                "command": "props",
                "n": 3,
                "commutative": {"holds": True, "witness": None},
                "implicative": {"holds": False, "witness": [1, 2]},
                "positive_implicative": {"holds": False, "witness": [2, 1, 1]},
            }
        )
        code, out, _ = run(capsys, "props", path)
        assert code == 0
        assert out.splitlines() == [
            "n: 3",
            "commutative: yes",
            "implicative: no (witness x=1, y=2)",
            "positive implicative: no (witness x=2, y=1, z=1)",
        ]

    def test_dual_labelled(self, capsys):
        code, out, _ = run(capsys, "dual", "--json", fx("local5_star.alg"))
        assert code == 0
        assert out == pinned(
            {
                "command": "dual",
                "kind": "dot",
                "n": 5,
                "theta": 0,
                "labels": ["θ", "a", "b", "c", "d"],
                "table": [
                    [0, 1, 2, 3, 4],
                    [0, 0, 2, 3, 4],
                    [0, 1, 0, 3, 4],
                    [0, 0, 0, 0, 4],
                    [0, 0, 0, 0, 0],
                ],
            }
        )

    def test_cut_with_two_collisions(self, capsys):
        code, out, _ = run(
            capsys, "cut", "--rows", "1,2,1", "--cols", "5,6", "--json", fx("embed9_star.alg")
        )
        assert code == 0
        assert out == pinned(
            {
                "command": "cut",
                "rows": [1, 2, 1],
                "cols": [5, 6],
                "words": ["00", "00", "00"],
                "collisions": [[0, 1], [0, 2]],
                "code": ["00"],
            }
        )

    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--json", fx("embed9.code"))
        assert code == 0
        words = ["0011", "0010", "0001", "0000"]
        assert out == pinned(
            {
                "command": "roundtrip",
                "ok": True,
                "expected": words,
                "recovered": words,
                "first_mismatch": None,
            }
        )

    def test_family_local(self, capsys):
        code, out, _ = run(capsys, "family", "--kind", "local", "--n", "5", "--bits", "011", "--json")
        assert code == 0
        assert out == pinned(
            {
                "command": "family",
                "kind": "local",
                "n": 5,
                "bits": "011",
                "words": ["11111", "01011", "00111", "00011", "00001"],
            }
        )

    def test_iso_yes(self, capsys):
        code, out, _ = run(capsys, "iso", "--json", fx("local5_star.alg"), fx("local5_star.alg"))
        assert code == 0
        assert out == pinned({"command": "iso", "isomorphic": True, "mapping": [0, 1, 2, 3, 4]})

    def test_iso_no(self, capsys):
        code, out, _ = run(
            capsys, "iso", "--json", fx("local5_star.alg"), fx("semisimple4_star.alg")
        )
        assert code == 1
        assert out == pinned({"command": "iso", "isomorphic": False, "mapping": None})


def text(*lines: str) -> str:
    """The exact bytes of a text report: each line ends in a newline."""
    return "".join(f"{line}\n" for line in lines)


EMBED9_STAR_LINES = (
    "kind star",
    "n 9",
    "theta 0",
    "labels θ w2 w3 w4 w5 w6 w7 w8 w9",
    "0 0 0 0 0 0 0 0 0",
    "1 0 1 1 1 1 1 0 0",
    "2 2 0 2 2 2 2 0 2",
    "3 3 3 0 3 3 3 3 0",
    "4 4 4 4 0 4 4 4 4",
    "5 5 5 5 5 0 5 5 5",
    "6 6 6 6 6 6 0 6 6",
    "7 7 7 7 7 7 7 0 7",
    "8 8 8 8 8 8 8 8 0",
)

TEXT_REPORTS = {
    ("build", "--mode", "embed", "embed9.code"): (
        0,
        text(
            *EMBED9_STAR_LINES,
            "# origins: θ=theta w2=code_row:3 w3=code_row:2 w4=code_row:1 w5=code_row:0 "
            "w6=tail_row:0 w7=tail_row:1 w8=tail_row:2 w9=tail_row:3",
            "# tail elements: w6 w7 w8 w9",
            "# tail set {θ, w6, w7, w8, w9}: NOT a filter in the dual algebra (witness x=w8, y=w2)",
        ),
    ),
    ("build", "--mode", "direct", "local5.code"): (
        0,
        text(
            "kind star",
            "n 5",
            "theta 0",
            "labels θ a b c d",
            "0 0 0 0 0",
            "1 0 1 0 0",
            "2 2 0 0 0",
            "3 3 3 0 0",
            "4 4 4 4 0",
            "# origins: θ=theta a=code_row:1 b=code_row:2 c=code_row:3 d=code_row:4",
        ),
    ),
    ("verify", "--kind", "bck", "local5_star.alg"): (0, text("kind: bck", "n: 5", "passed: yes")),
    ("props", "local5_star.alg"): (
        0,
        text(
            "n: 5",
            "commutative: no (witness x=a, y=c)",
            "implicative: no (witness x=a, y=c)",
            "positive implicative: yes",
        ),
    ),
    ("classify", "semisimple4_star.alg"): (
        0,
        text(
            "n: 4",
            "filters: 8",
            "maximal filters: 3",
            "  {θ, a, b}",
            "  {θ, a, c}",
            "  {θ, b, c}",
            "radical: {θ}",
            "local: no",
            "semisimple: yes",
        ),
    ),
    ("filters", "--all", "local5_dot.alg"): (
        0,
        text("filters: 6", "{θ}", "{θ, a}", "{θ, b}", "{θ, a, b}", "{θ, a, b, c}", "{θ, a, b, c, d}"),
    ),
    ("filters", "--maximal", "semisimple4_star.alg"): (
        0,
        text("maximal filters: 3", "{θ, a, b}", "{θ, a, c}", "{θ, b, c}"),
    ),
    ("cut", "--rows", "1,2,1", "--cols", "5,6", "embed9_star.alg"): (
        0,
        text("00", "00", "00", "# collision: row 1 repeats row 0", "# collision: row 2 repeats row 0"),
    ),
    ("roundtrip", "embed9.code"): (0, text("roundtrip: ok (4 words recovered)")),
    ("family", "--kind", "semisimple", "--n", "4"): (0, text("1111", "0100", "0010", "0001")),
    ("census", "--n", "5"): (
        0,
        text("n: 5", "free bits: 6", "64 matrices, 16 classes, bound 64, bound met: no"),
    ),
    ("census", "--n", "8", "--sample", "20", "--seed", "3"): (
        0,
        text(
            "n: 8",
            "free bits: 21",
            "sampled 20 of 2097152 matrices (seed 3), 19 classes, bound 2097152, bound met: no",
        ),
    ),
    ("hasse", "--format", "text", "semisimple4.code"): (
        0,
        text("covers:", "1111 < 0100", "1111 < 0010", "1111 < 0001"),
    ),
    ("hasse", "local5_star.alg"): (
        0,
        text(
            "digraph hasse {",
            "  rankdir=BT;",
            '  n0 [label="θ"];',
            '  n1 [label="a"];',
            '  n2 [label="b"];',
            '  n3 [label="c"];',
            '  n4 [label="d"];',
            "  n0 -> n1;",
            "  n0 -> n2;",
            "  n1 -> n3;",
            "  n2 -> n3;",
            "  n3 -> n4;",
            "}",
        ),
    ),
    ("iso", "local5_star.alg", "local5_star.alg"): (
        0,
        text("isomorphic: yes", "mapping: θ -> θ, a -> a, b -> b, c -> c, d -> d"),
    ),
    ("iso", "local5_star.alg", "semisimple4_star.alg"): (1, text("isomorphic: no")),
}


class TestTextReports:
    """Whole text reports, byte for byte; a trailing argument names a fixture."""

    @pytest.mark.parametrize("argv", list(TEXT_REPORTS), ids=" ".join)
    def test_report(self, capsys, argv):
        args = [fx(a) if (FIXTURES / a).is_file() else a for a in argv]
        assert run(capsys, *args) == (*TEXT_REPORTS[argv], "")

    def test_verify_fail(self, capsys, tmp_path):
        path = alg_file(tmp_path, "kind star\nn 2\ntheta 0\n0 0\n1 1\n")
        assert run(capsys, "verify", "--kind", "bck", path) == (
            1,
            text(
                "kind: bck",
                "n: 2",
                "passed: no",
                "axiom 1 violated at (x=1, y=0, z=0)",
                "axiom 2 violated at (x=1, y=0)",
                "axiom 3 violated at (x=1)",
            ),
            "",
        )

    def test_roundtrip_failed(self, capsys, monkeypatch):
        def corrupted(code):
            report = roundtrip_check(code)
            recovered = ("0111", *report.recovered[1:])
            return dataclasses.replace(report, ok=False, recovered=recovered, first_mismatch=0)

        monkeypatch.setattr(cli, "roundtrip_check", corrupted)
        assert run(capsys, "roundtrip", fx("embed9.code")) == (
            1,
            text("roundtrip: FAILED at word 0: got 0111, expected 0011"),
            "",
        )


HELP_COMMANDS = [
    "bckcodes", "build", "verify", "props", "dual", "filters", "classify",
    "cut", "roundtrip", "family", "census", "hasse", "iso",
]


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_text(capsys, monkeypatch, command):
    """Usage and --help bytes; argparse wraps them to COLUMNS."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "bckcodes" else [command, "--help"]
    want = (FIXTURES / "help" / f"{command}.txt").read_text(encoding="utf-8")
    assert run(capsys, *argv) == (0, want, "")


class TestOneElementAndOrderErrors:
    def test_classify_degenerate_text(self, capsys, tmp_path):
        path = alg_file(tmp_path, "kind star\nn 1\ntheta 0\n0\n")
        assert run(capsys, "classify", path) == (
            0,
            text(
                "n: 1",
                "filters: 1",
                "degenerate: single-element algebra, no proper filters",
                "local: n/a",
                "semisimple: n/a",
            ),
            "",
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "kind star\nn 3\ntheta 0\n0 0 0\n1 0 0\n2 0 0\n",
                "relation is not antisymmetric: 1 <= 2 and 2 <= 1",
            ),
            ("kind star\nn 2\ntheta 0\n0 1\n1 0\n", "element 0 is not below every element"),
            # both faults: the order axioms are reported first
            (
                "kind star\nn 3\ntheta 0\n0 1 1\n1 0 0\n2 0 0\n",
                "relation is not antisymmetric: 1 <= 2 and 2 <= 1",
            ),
        ],
        ids=["not-antisymmetric", "theta-not-least", "both"],
    )
    def test_hasse_on_a_non_order(self, capsys, tmp_path, text, message):
        code, out, err = run(capsys, "hasse", alg_file(tmp_path, text))
        assert (code, out) == (2, "")
        assert err == f"error: table does not induce a partial order: {message}\n"

    def test_hasse_dualizes_dot_input(self, capsys, tmp_path):
        path = alg_file(tmp_path, "kind dot\nn 2\ntheta 0\n0 1\n0 0\n")
        code, out, _ = run(capsys, "hasse", "--format", "text", path)
        assert code == 0
        assert out.splitlines() == ["covers:", "0 < 1"]


class TestAlgebraFormatErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind circle\nn 1\ntheta 0\n0\n", "line 1: kind must be 'star' or 'dot'"),
            ("kind star\nn two\ntheta 0\n0\n", "line 2: n must be a positive integer"),
            ("kind star\nn 0\ntheta 0\n0\n", "line 2: n must be a positive integer"),
            ("kind star\nn 1\ntheta t\n0\n", "line 3: theta must be an element index"),
            ("kind star\ntheta 0\n0\n", "line 3: table rows before an 'n' header"),
            ("kind star\nn 2\ntheta 0\n0 x\n1 0\n", "line 4: non-integer table entry in '0 x'"),
            ("kind star\nn 2\ntheta 0\n0\n1 0\n", "line 4: expected 2 entries per row, got 1"),
            ("kind star\nn 1\ntheta 0\n0\n0\n", "line 5: more than 1 table rows"),
            ("kind star\ntheta 0\n", "missing 'n' header"),
            ("kind star\nn 1\n0\n", "missing 'theta' header"),
            ("kind star\nn 1\ntheta 1\n0\n", "theta index 1 out of range [0, 1)"),
            ("kind star\nn 2\ntheta 0\nlabels a\n0 0\n1 0\n", "expected 2 labels, got 1"),
            ("kind star\nn 3\ntheta 0\nn 2\n0 0\n1 0\n", "line 4: duplicate 'n' header"),
            ("kind star\nkind dot\nn 1\ntheta 0\n0\n", "line 2: duplicate 'kind' header"),
            ("kind star\nn 2\ntheta 0\ntheta 1\n0 0\n1 0\n", "line 4: duplicate 'theta' header"),
            ("kind star\nn 1\ntheta 0\nlabels a\nlabels b\n0\n", "line 5: duplicate 'labels' header"),
        ],
        ids=[
            "bad-kind", "n-non-integer", "n-zero", "theta-non-integer", "rows-before-n",
            "non-integer-entry", "short-row", "too-many-rows", "n-missing", "theta-missing",
            "theta-out-of-range", "label-count", "duplicate-n", "duplicate-kind",
            "duplicate-theta", "duplicate-labels",
        ],
    )
    def test_one_error_line(self, capsys, monkeypatch, tmp_path, text, message):
        monkeypatch.setattr(sys, "argv", ["bckcodes", "verify", "--kind", "bck", alg_file(tmp_path, text)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
