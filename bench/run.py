#!/usr/bin/env python3
"""Run one benchmark workload once and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src, and
nothing else is built. Workloads are listed in BENCHMARK.json and described
in bench/NOTES.md. The load is a closed loop: one caller in one process runs
the workload's units back to back until the program has been busy for S
seconds.

With ``--trace 0`` the run reports the end-to-end metrics. Set-up time is
the median over several fresh processes that each start the interpreter,
import the program and generate the inputs. With ``--trace 1`` each unit
runs twice, untraced and then traced with hooks installed, and the run
reports the per-layer metrics of the traced copies and the tracing overhead.

Output checks and the program's ``oracle-check`` run untimed. Human-readable
lines, including the environment record, come first; the last line of
stdout is the JSON result. The exit code is 0 whenever a result is printed,
even with failures, and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 11
SUBPROCESS_TIMEOUT = 120
WALL_FACTOR = 3  # stop early if units fail so fast that the loop would spin

sys.path.insert(0, str(BENCH_DIR))

from workloads import VARIANTS, WORKLOADS  # noqa: E402  (numpy only)

END_TO_END = (
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_share", "ratio"),
)


class ProgramMissing(Exception):
    """The checkout holds no program to benchmark."""


def import_program():
    if not (SRC / "hbab" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import hbab

    if SRC not in Path(hbab.__file__).resolve().parents:
        raise ProgramMissing(f"hbab was imported from {hbab.__file__}, not {SRC}")
    return hbab


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("HBAB_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(hbab_workers_seen) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "HBAB_WORKERS": "unset" if hbab_workers_seen is None
        else f"unset (was {hbab_workers_seen!r} in the caller's environment)",
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up,
    one value per successful probe."""
    times = []
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe", probe_dir,
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
                env=program_env(), cwd=ROOT)
            if proc.returncode == 0:
                times.append(float(proc.stdout.split()[-1]) - start)
            else:
                print(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def oracle_check(run_dir: Path) -> str | None:
    """The closed-form verification battery, once per run; None if it passed."""
    proc = subprocess.run(
        [sys.executable, "-m", "hbab.cli", "oracle-check", "--out", str(run_dir / "oracle")],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
        env=program_env(), cwd=ROOT)
    shutil.rmtree(run_dir / "oracle", ignore_errors=True)
    if proc.returncode == 0:
        return None
    return f"oracle-check exited {proc.returncode}: {proc.stdout.strip()[-500:]}"


def run_units(wl, state, seconds: float):
    units, busy, index = [], 0.0, 0
    deadline = time.monotonic() + WALL_FACTOR * seconds
    while busy < seconds and (not units or time.monotonic() < deadline):
        unit = wl.run_unit(state, index)
        units.append(unit)
        busy += unit.seconds
        index += 1
    return units


def run_traced_units(wl, state, seconds: float, tracing):
    """Each unit untraced, then again traced on the same inputs and seeds."""
    plain, traced, index = [], [], 0
    deadline = time.monotonic() + WALL_FACTOR * seconds
    while (sum(u.seconds for u in plain + traced) < seconds
           and (not plain or time.monotonic() < deadline)):
        plain.append(wl.run_unit(state, index))
        tracing.install()
        try:
            traced.append(wl.run_unit(state, index, tracing.tracer))
        finally:
            tracing.restore()
        index += 1
    return plain, traced


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    hbab_workers = os.environ.pop("HBAB_WORKERS", None)
    import_program()
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    errors, attempted = [], 0
    try:
        print("env " + json.dumps(environment(hbab_workers), sort_keys=True))
        print(f"workload {wl.name} seed {args.seed} dataset {args.seed % VARIANTS} "
              f"trace {args.trace}")
        setup_times = [] if args.trace else measure_setup(wl.name, args.seed)
        if not args.trace and not setup_times:
            attempted += 1
            errors.append("no set-up probe succeeded")
        attempted += 1
        oracle = oracle_check(run_dir)
        if oracle is not None:
            errors.append(oracle)
        state = wl.prepare(args.seed, run_dir)
        if args.trace:
            from hooks import HOOKS, Tracing, layer_metrics
            from spans import Tracer

            tracing = Tracing(Tracer(f"{wl.name}-seed{args.seed}"))
            plain, units = run_traced_units(wl, state, args.seconds, tracing)
            all_units = plain + units
        else:
            units = all_units = run_units(wl, state, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted += sum(u.attempted for u in all_units)
    errors += [e for u in all_units for e in u.errors]
    failed = len(errors)
    for i, unit in enumerate(all_units):
        print(f"unit {i}: {unit.seconds:.4f} s, {unit.looks} looks"
              + "".join(f"; {note}" for note in unit.notes))
    for error in errors:
        print(f"failure: {error}")
    looks = sum(u.looks for u in units)
    busy = sum(u.seconds for u in units)
    print(f"failed_share {fmt(failed_share(attempted, failed))} ratio "
          f"({failed} of {attempted} operations failed)")

    if args.trace:
        work = {
            "looks": looks,
            "commands": sum(u.commands for u in units),
            "output_bytes": sum(u.output_bytes for u in units),
            "traced_s": busy,
            "untraced_s": sum(u.seconds for u in plain),
        }
        metrics = layer_metrics(tracing, work)
        totals = tracing.tracer.totals()
        for name in sorted(totals):
            agg = totals[name]
            print(f"span {name} calls {agg.calls} total_s {agg.total:.6f} "
                  f"self_s {agg.self_time:.6f}")
        print(f"trace overhead {work['traced_s'] - work['untraced_s']:.4f} s over "
              f"{work['untraced_s']:.4f} s untraced ({len(units)} units)")
        absent = sorted({h.name for h in HOOKS} - tracing.present)
        print("absent hooks: " + (", ".join(absent) if absent else "none"))
        OUT_DIR.mkdir(exist_ok=True)
        tracing.tracer.dump(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) if setup_times else None,
            "updates_per_s": looks / busy if busy > 0 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_share": 1.0 - failed_share(attempted, failed),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        print(f"set-up probes (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"{looks} looks in {busy:.4f} s of program time over {len(units)} units")
        if wl.name == "paper-fit-hb" and looks:
            hours = 80 * 30 * busy / looks / 3600.0
            print(f"projected_paper_simulate_h {hours:.4g} h (info only: 80 reps x 30 "
                  "looks x seconds per look)")
    for name, metric in metrics.items():
        print(f"{name} {fmt(metric['value'])} {metric['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": metrics}


def setup_probe(args) -> int:
    import_program()
    WORKLOADS[args.workload].prepare(args.seed, Path(args.setup_probe))
    print(time.monotonic())
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one hbab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        result = run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
