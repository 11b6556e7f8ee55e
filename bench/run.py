"""The bckcodes benchmark: seeded workloads through the CLI, end to end and
per layer, with every op checked against an independent oracle.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A run builds the workload's inputs from the seed and writes them to a
scratch directory in the checkout before any clock starts.  It then runs
passes until the next one would end past `--seconds`, at least one.  A pass
is one fresh child interpreter that runs every op of the workload once, one
at a time (a closed loop with one client, `--jobs 1`).  The parent checks
each op's exit code and output after the pass.  An untraced pass also times
a calibration loop after every second or so of ops (see child.calibrate).
Before each pass and after the last, the parent runs set-up probes.

--trace 0 reports the end-to-end metrics: wall_s, a typical pass's time
from its first op to its last (see pass_wall), scaled to the reference
machine speed by the run's calibration loops; setup_s, the
median time from spawning a child to `import bckcodes` done, over probe
children and pass children; peak_rss_mb, the median pass child's max
RSS.  --trace 1 runs one untraced
pass, then traced passes, and reports the per-layer metrics of
tracing.PER_LAYER as medians over the traced passes.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Exit code 0 means a report was printed (correct or not); any
other code means the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
SETUP_PROBES = 2  # before each pass and after the last, to sample the whole run
# About the median child.calibrate() on the machine of baseline.json, whose
# runs there read a speed of 0.96 (median of 40).
REFERENCE_CALIBRATION_S = 0.060
RUN_LIMIT_S = 170  # a workload's children are killed past this, so a hung op cannot stall the run
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to an op failing)."""


def spawn(args: list[str], deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, *args],
        capture_output=True, text=True, timeout=max(1.0, deadline - t0), cwd=ROOT,
    )
    return t0, proc


def probe(deadline: float) -> float:
    t0, proc = spawn(["probe"], deadline)
    if proc.returncode != 0:
        raise BenchError(proc.stderr.strip() or f"probe exited {proc.returncode}")
    return float(proc.stdout.strip()) - t0


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()[:16]


class Workload:
    """One workload's inputs on disk, its ops, and the checked passes."""

    def __init__(self, name: str, seed: int, scratch: Path, deadline: float):
        self.deadline = deadline
        built = workloads.build(name, seed, ROOT)
        again = workloads.build(name, seed, ROOT)
        self.inputs = digest(built.files)
        if digest(again.files) != self.inputs:
            raise BenchError(f"{name}: seed {seed} does not give byte-identical inputs")
        self.ops = built.ops
        self.dir = scratch / name
        self.dir.mkdir(parents=True)
        for file, data in built.files.items():
            (self.dir / file).write_bytes(data)
        self.verdicts: dict[tuple[int, int | None, str], str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool) -> dict:
        spec_path = self.dir / "spec.json"
        result_path = self.dir / "result.json"
        spec = {"ops": [op.argv for op in self.ops], "trace": traced,
                "cwd": str(self.dir), "result": str(result_path)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        try:
            t0, proc = spawn([str(spec_path)], self.deadline)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0 or not result_path.exists():
            self.attempted += len(self.ops)
            reason = "timed out" if proc is None else f"exited {proc.returncode}: {proc.stderr[-500:]}"
            self.failures += [f"{' '.join(op.argv)}: child {reason}" for op in self.ops]
            return {}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup"] = result["ready"] - t0
        self.check(result["ops"])
        return result

    def check(self, outputs: list[dict]) -> None:
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            if out["rc"] != op.rc:
                why = f"exit code {out['rc']}, expected {op.rc}: {out['stderr'][-300:]}"
            else:
                # an identical output of the same op has the same verdict
                key = (i, out["rc"], hashlib.sha256(out["stdout"].encode()).hexdigest())
                if key not in self.verdicts:
                    self.verdicts[key] = op.check(out["stdout"])
                why = self.verdicts[key]
            if why is not None:
                self.failures.append(f"{' '.join(op.argv)}: {why}")


def pass_wall(passes: list[dict]) -> float:
    """Time of a typical pass from its first op to its last: the sum over ops
    of each op's median time across the passes.  On a shared machine a burst
    of interference slows one op of one pass; the per-op median drops it
    where a median of pass totals would keep it."""
    per_op = zip(*([op["seconds"] for op in r["ops"]] for r in passes))
    return sum(statistics.median(times) for times in per_op)


def machine_speed(passes: list[dict]) -> float:
    """The machine's speed during the passes relative to the reference
    machine: the reference time of the calibration loop over the median of
    the loops timed in the passes.  The median over the whole run, not the
    loops next to each op, because one loop is noisy and the drift it
    corrects is slow."""
    return REFERENCE_CALIBRATION_S / statistics.median(c for r in passes for c in r["calibrations"])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    w = Workload(name, seed, scratch, deadline)
    setups: list[float] = []

    def sample_machine() -> None:
        setups.extend(probe(deadline) for _ in range(SETUP_PROBES))

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        sample_machine()
        as_traced = trace and bool(plain)
        result = w.run_pass(as_traced)
        if result:
            (traced if as_traced else plain).append(result)
            setups.append(result["setup"])
        passes = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        enough = traced if trace else plain
        if not result or (enough and elapsed * (passes + 1) / passes > seconds):
            break
    sample_machine()
    if not plain or (trace and not traced):
        raise BenchError(f"{name}: no pass completed: {w.failures[:1]}")

    if trace:
        per_pass = [tracing.layer_metrics(r["spans"], r["counts"], r["wall"]) for r in traced]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["process.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(r["wall"] for r in plain))
        units = tracing.PER_LAYER
        repeat = all(m[k] == per_pass[0][k] for m in per_pass for k in tracing.EXACT_COUNTS)
        print(f"{name}: counts {', '.join(tracing.EXACT_COUNTS)} repeat over "
              f"{len(per_pass)} traced pass(es): {'yes' if repeat else 'NO'}")
    else:
        measured, speed = pass_wall(plain), machine_speed(plain)
        print(f"{name}: measured wall {measured:.4f} s; machine at {speed:.3f} of reference speed "
              f"over {sum(len(r['calibrations']) for r in plain)} calibration loops")
        metrics = {
            "wall_s": measured * speed,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
        }
        units = END_TO_END
    failed = len(w.failures)
    print(f"{name}: seed {seed}, inputs {w.inputs}, {len(plain)} plain + {len(traced)} traced "
          f"pass(es) of {len(w.ops)} ops; pass walls "
          + " ".join(f"{r['wall']:.3f}" for r in plain + traced) + " s")
    print(f"{name}: failed_share {failed / w.attempted:.4f} ({failed} of {w.attempted} ops attempted)")
    for failure in w.failures[:5]:
        print(f"{name}: FAILED {failure}")
    for key, unit in units.items():
        print(f"{name}: {key} {metrics[key]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": w.attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    scratch = ROOT / ".bench_run" / str(os.getpid())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), scratch) for n in names}
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run still uses it
        except OSError:
            pass
    if len(results) == 1:
        report = results[names[0]]
    else:
        report = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
