"""One pass of a workload in a fresh interpreter.

    python3 child.py probe              import bckcodes, print the time, exit
    python3 child.py SPEC.json          run the ops in SPEC, write its result

The first thing the child does is import the package from the checkout's
`src/`, so the time from the parent's spawn to `ready` is interpreter start
plus `import bckcodes`, which every CLI call pays.  Ops then run one at a
time through `bckcodes.cli.run_command` with stdout and stderr captured.
An untraced pass also times a calibration loop between ops (see
calibrate).
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
try:
    import bckcodes.cli
except ImportError as exc:
    sys.exit(f"cannot import bckcodes from {ROOT / 'src'}: {exc}")
READY = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

CALIBRATE_EVERY_S = 1.0  # of op time between calibration loops


def _calibration_inputs() -> dict:
    """The loop's inputs and output buffers, made once per process and kept
    for its life: the loop frees no large block, so it leaves glibc's mmap
    threshold, and the heap that the ops see, as they were.  No numpy.random:
    importing it would add to the child's RSS."""
    n, m = 7, 48
    perms = np.array([(0,) + r for r in itertools.permutations(range(1, n))])
    invs = np.argsort(perms, axis=1)
    cells = (invs[:, :, None] * n + invs[:, None, :]).ravel()
    table = np.arange(m * m) * 7919 % m
    square = table.reshape(m, m)
    cube = np.empty((m, m, m), dtype=np.int64)  # cube[x,y,z] = t[x,y] * m + t[y,z]
    np.multiply(square[:, :, None], m, out=cube)
    np.add(cube, square[None, :, :], out=cube)
    return {
        "small": np.arange(n * n) * 5 % n,
        "perms": perms.ravel(),
        "cells": cells,
        "rows": np.repeat(np.arange(len(perms)) * n, n * n),
        "sub": np.empty_like(cells),
        "mapped": np.empty_like(cells),
        "table": table,
        "cube": cube.ravel(),
        "gathered": np.empty(m**3, dtype=np.int64),
    }


_CALIBRATION: dict = {}


def calibrate() -> float:
    """Seconds the machine takes, right now, for a fixed mix of the kinds of
    work bckcodes does, done without bckcodes: the numpy steps of the
    canonical form at n = 7 (gathers and a 49-key lexsort over 720
    permutations, as in the census), an n^3 gather (as in the axiom scans),
    a permutation table and dict updates in the interpreter.

    The shared machine's speed drifts over tens of seconds to minutes, for
    this loop and for the ops alike; the parent divides a run's wall time by
    the median of the loops timed in it (see run.py).  The loop does not
    change when bckcodes does, so a faster or slower program still moves
    that ratio in full."""
    if not _CALIBRATION:
        _CALIBRATION.update(_calibration_inputs())
    c = _CALIBRATION
    start = time.perf_counter()
    for _ in range(60):
        c["small"].take(c["cells"], out=c["sub"])
        np.add(c["rows"], c["sub"], out=c["sub"])
        c["perms"].take(c["sub"], out=c["mapped"])
        np.lexsort(c["mapped"].reshape(-1, 49).T[::-1])
    for _ in range(12):
        c["table"].take(c["cube"], out=c["gathered"])
        np.count_nonzero(c["gathered"])
    table = [(0,) + r for r in itertools.permutations(range(1, 8))]
    counts: dict[int, int] = {}
    for i in range(60_000 + len(table)):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - start


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    os.chdir(spec["cwd"])
    results = []
    stdout_bytes = 0
    calibrations: list[float] = []  # untraced passes only
    aside = {"wall": 0.0, "cpu": 0.0}  # spent calibrating, left out of the pass's wall and CPU

    def calibrate_now() -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        calibrations.append(calibrate())
        aside["wall"] += time.perf_counter() - w0
        aside["cpu"] += time.process_time() - c0

    since = CALIBRATE_EVERY_S
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    start = time.perf_counter()
    for op_id, argv in enumerate(spec["ops"]):
        if tracer is None and since >= CALIBRATE_EVERY_S:
            calibrate_now()
            since = 0.0
        if tracer is not None:
            tracer.op = op_id
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = bckcodes.cli.run_command(argv)
            except Exception:  # a crash is a failed op, reported with its traceback
                rc = None
                err.write(traceback.format_exc())
        t1 = time.perf_counter()
        since += t1 - t0
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        results.append({"rc": rc, "stdout": text, "stderr": err.getvalue(), "seconds": t1 - t0})
    if tracer is None:
        calibrate_now()
    wall = time.perf_counter() - start - aside["wall"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": READY,
        "wall": wall,
        "calibrations": calibrations,
        "cpu": usage.ru_utime + usage.ru_stime - cpu0 - aside["cpu"],
        "maxrss_kb": usage.ru_maxrss,
        "ops": results,
    }
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] = stdout_bytes
        tracer.counts["codegen.distinct_orders"] = len(tracer.orders)
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    return result


def main() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(bckcodes.__file__).resolve().parents:
        sys.exit(f"bckcodes was imported from {bckcodes.__file__}, not from {src}")
    if sys.argv[1] == "probe":
        print(repr(READY))
        return
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
