#!/usr/bin/env python3
"""Run the benchmark over ten seeds and write bench/BENCH_<label>.json.

    python3 bench/collect.py --label NAME

Each run is a fresh ``bench/run.py`` process with the settings of
BENCHMARK.json: seeds 1 to 10 untraced, then one traced run on seed 1, for
every workload. For every workload the file records each end-to-end metric's
values, median, quartiles and spread (interquartile distance over the
median) next to its bound, the set-up probe times of every run, the traced
run's per-layer metrics, and the environment record. A spread of at least a
third of its bound is flagged WIDE. When ``BENCH_seed.json`` exists and the
label is another, the script also prints how far each median moved from it.
Run it from the root of a checkout, on an otherwise idle machine; later
changes add their own BENCH_<label>.json and cite the difference in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
BASELINE = "seed"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, list[str]]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result, env, lines


def line_with(lines: list[str], prefix: str) -> str | None:
    return next((line for line in lines if line.startswith(prefix)), None)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def compare(report: dict, baseline: dict) -> None:
    """Print each end-to-end median's change from the baseline, as a share of
    the baseline median, signed so that positive is worse."""
    for name, entry in report["workloads"].items():
        base = baseline["workloads"].get(name)
        if base is None:
            continue
        for m, stats in entry["end_to_end"].items():
            was = base["end_to_end"][m]["median"]
            worse = stats["median"] / was - 1.0 if was else 0.0
            if stats["better"] == "higher":
                worse = -worse
            flag = "  OUTSIDE BOUND" if worse > stats["bound"] else ""
            print(f"{name} {m}: median {stats['median']:.5g} vs {was:.5g} "
                  f"({worse:+.4f} worse, bound {stats['bound']}){flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    report = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        results = []
        for seed in SEEDS:
            result, report["env"], lines = run_once(spec, name, seed, 0)
            results.append(result)
            projected = line_with(lines, "projected_paper_simulate_h ")
            result["projected_paper_simulate_h"] = (float(projected.split()[1])
                                                    if projected else None)
            probes = line_with(lines, "set-up probes (s):").split(":", 1)[1]
            result["setup_probes_s"] = [float(t) for t in probes.split(",") if t.strip()]
            print(f"{name} seed {seed}: wall {result['wall_s']:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "wall_s": spread([r["wall_s"] for r in results]),
            "setup_probes_s": [r["setup_probes_s"] for r in results],
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            m = metric["name"]
            entry["end_to_end"][m] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **spread([r["metrics"][m]["value"] for r in results]),
            }
        projected = [r["projected_paper_simulate_h"] for r in results
                     if r["projected_paper_simulate_h"] is not None]
        if projected:
            entry["projected_paper_simulate_h"] = statistics.median(projected)
        traced, _, _ = run_once(spec, name, SEEDS[0], 1)
        entry["traced"] = {"seed": SEEDS[0], "correct": traced["correct"],
                           "failed": traced["failed"], "per_layer": traced["metrics"]}
        report["workloads"][name] = entry
        for m, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < stats["bound"] / 3 else "  WIDE"
            print(f"  {m}: median {stats['median']:.5g} {stats['unit']} spread "
                  f"{stats['spread']:.4f} (bound {stats['bound']}){flag}", flush=True)
        print(f"  failed_share: {entry['failed'] / entry['attempted']:.4g} ratio "
              f"({entry['failed']} of {entry['attempted']} operations)", flush=True)

    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    baseline = BENCH_DIR / f"BENCH_{BASELINE}.json"
    if args.label != BASELINE and baseline.is_file():
        compare(report, json.loads(baseline.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
