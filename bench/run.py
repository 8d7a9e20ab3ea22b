#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      # all five, both passes, one result file
    python3 bench/run.py --workload e2e_dense --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --workload e2e_dense --trace 1    # + spans, per-layer table
    python3 bench/run.py --quick --workload service_mixed  # smoke: inputs / 10

With ``--workload`` the workload runs in this process (``ru_maxrss`` is
process-lifetime, so one workload per process) and the last line of standard
output is the contract's result object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it every
workload runs twice in subprocesses (untraced, then traced) and the merged
record is written to ``bench/out/``.  Metric names, units, directions and
bounds are fixed in ``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import value_of

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((REPO_DIR / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="inputs / 10, 2 repetitions, 4 s schedule; no bounds apply")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full record of a --workload run here")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file of a full run (default bench/out/result-seed<N>.json)")
    return parser.parse_args(argv)


def print_metrics(record: dict) -> None:
    """Every measured metric by name, with its unit and, for timings, spread."""
    print(f"== {record['workload']}  seed={record['seed']}  sizes={record['sizes']}")
    for name, measured in sorted(record["metrics"].items()):
        declared = END_TO_END.get(name) or PER_LAYER.get(name) or {"unit": "?"}
        gate = f"  bound {declared['bound']:g}" if "bound" in declared else ""
        line = f"  {name:<36}{value_of(measured):>16.6g} {declared['unit']:<8}{gate}"
        if isinstance(measured, dict) and measured.get("n", 1) > 1:
            line += (f"  [min {measured['min']:.6g}  q1 {measured['q1']:.6g}"
                     f"  q3 {measured['q3']:.6g}  n {measured['n']}]")
        print(line)
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for failure in record["failures"][:10]:
        print(f"  FAILED: {failure}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the contract's result line last."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    # Every temp file of the library and of multiprocessing stays in bench/out/.
    os.environ["TMPDIR"] = os.environ["REPRO_TMPDIR"] = scratch
    tempfile.tempdir = None
    sys.path.insert(0, str(REPO_DIR / "src"))
    try:
        import_started = time.perf_counter()
        import batch  # noqa: PLC0415 - timed: imports are part of set-up
        import service_mixed  # noqa: PLC0415

        import_s = time.perf_counter() - import_started
        common = (args.workload, args.seed, args.seconds, bool(args.trace),
                  args.quick, import_s, batch.RelativeClock())
        if args.workload == "service_mixed":
            record = service_mixed.run_service_mixed(*common, OUT_DIR)
        else:
            record = batch.RUNNERS[args.workload](*common)
    finally:
        leftovers = os.listdir(scratch)
        shutil.rmtree(scratch)
    tracer = record.pop("tracer")
    if leftovers:
        record["failures"].append(f"temp files left behind: {leftovers[:5]}")
        record["attempted"] += 1
        record["failed"] += 1
    record["metrics"]["setup.import_s"] = import_s
    print_metrics(record)
    if tracer is not None:
        tracer.write(OUT_DIR)
        print(tracer.self_time_table())
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=1), encoding="utf-8")

    declared = PER_LAYER if args.trace else END_TO_END
    measured = record["metrics"]
    missing = [name for name in END_TO_END if name not in measured]
    undeclared = [n for n in measured if n not in END_TO_END and n not in PER_LAYER]
    if missing or undeclared:
        print(f"metric names out of step with BENCHMARK.json: missing {missing}, "
              f"undeclared {undeclared}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            # A layer this workload never enters reports 0: it did no work there.
            name: {"value": value_of(measured.get(name, 0)), "unit": spec["unit"]}
            for name, spec in declared.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own subprocess."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = {"environment": environment(), "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick, "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        merged = None
        for trace in (0, 1):
            path = OUT_DIR / f"record-{workload}-{trace}.json"
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--json", str(path)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout)
                print(f"{workload} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            record = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            if merged is None:
                merged = record
            else:
                # Whatever the untraced pass measured stands; the traced
                # pass only adds the span-derived names.
                for name, measured in record["metrics"].items():
                    merged["metrics"].setdefault(name, measured)
                merged["attempted"] += record["attempted"]
                merged["failed"] += record["failed"]
                merged["failures"] += record["failures"]
        merged["metrics"]["failed_share"] = merged["failed"] / merged["attempted"]
        print_metrics(merged)
        failed += merged["failed"]
        result["workloads"][workload] = merged
    out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    return 1 if failed else 0


def environment() -> dict:
    """Where the numbers were taken; the commit is unknown outside git."""
    import numpy  # noqa: PLC0415

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_DIR, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


SUPERVISED = "REPRO_BENCH_SUPERVISED"
PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 5.0


def descendants() -> "list[int]":
    """Live or unreaped children of this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # gone between listdir and read
            # pid (comm) state ppid ...; comm may hold spaces and parentheses
            if int(stat.rpartition(")")[2].split()[1]) == me:
                found.append(int(entry))
    return found


def supervise() -> int:
    """Run this command again as a child, and outlive everything it started.

    The child runs with ``PYTHONHASHSEED=0``: str hashes are salted per
    process, set and dict layouts follow the salt, and with them ``run_s``
    (the same seed measured 0.92-1.09 s on ``e2e_dense`` across processes
    with the salt free, 0.923-0.937 s pinned).  The server and the engine's
    workers inherit the variable.

    This process is the child's subreaper, so whatever the child leaves
    behind on any path out — multiprocessing's resource tracker ends only
    *after* its parent, a crashed run orphans the server or pool workers — is
    handed to it, given ``GRACE_S`` to end by itself, killed, and reaped
    before the command returns.
    """
    import ctypes  # noqa: PLC0415
    import signal  # noqa: PLC0415

    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("cannot become a child subreaper", file=sys.stderr)
        return 1
    child = subprocess.Popen(
        [sys.executable, *sys.argv],
        env={**os.environ, "PYTHONHASHSEED": "0", SUPERVISED: "1"},
    )

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait()
    finally:
        # No grace when the run itself is being interrupted.
        deadline = time.monotonic() + (GRACE_S if child.poll() is not None else 0.0)
        while True:
            left = descendants()
            if not left:
                break
            if time.monotonic() > deadline:
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            time.sleep(0.005)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(SUPERVISED) != "1":
        return supervise()
    # Nested runs (run_all's subprocesses) supervise themselves again.
    del os.environ[SUPERVISED]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
