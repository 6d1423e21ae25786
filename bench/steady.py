"""Self-check: are two sets of benchmark runs steady within the bounds?

    python3 bench/steady.py [--workload NAME]...

Each of SETS sets makes RUNS runs per workload, each run with its own
seed, exactly as the benchmark is invoked: the command of BENCHMARK.json
followed by --workload W --seed N --seconds run_seconds --trace 0.  The
workloads are interleaved and their order is reversed on every other run.
For each end-to-end metric of BENCHMARK.json it prints each set's median
and spread (distance between the first and third quartile over the
median), and the drift, how much the second set's median differs from the
first's (positive when worse).  The check fails when a spread or the size
of the drift exceeds the metric's bound.  Spreads above a third of the
bound are flagged as too loose to resolve a change of the bound's size.
Raw values go to .bench_results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS, SETS = 10, 2


def run_once(spec, workload, seed):
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect output: {workload} seed {seed}\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    selected = parser.parse_args().workload or names

    values = {}  # (set, workload) -> metric -> [values]
    for s in range(SETS):
        for r in range(RUNS):
            for w in selected if r % 2 == 0 else selected[::-1]:
                seed = 1 + r + s * RUNS
                for k, v in run_once(spec, w, seed).items():
                    values.setdefault((s, w), {}).setdefault(k, []).append(v)
                print(f"set {s} run {r} {w} seed {seed}: " + " ".join(
                    f"{k}={vals[-1]:.4f}" for k, vals in values[(s, w)].items()), flush=True)

    ok = True
    print(f"{'workload':11} {'metric':15} {'bound':>6} " + " ".join(
        f"{'median' + str(s):>10} {'spread' + str(s):>8}" for s in range(SETS)) + f" {'drift':>7}")
    for w in selected:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            series = [values[(s, w)][name] for s in range(SETS)]
            medians = [statistics.median(v) for v in series]
            spreads = [spread(v) for v in series]
            drift = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                drift = -drift
            failed = []
            if max(spreads) > bound:
                failed.append("SPREAD>BOUND")
            if abs(drift) > bound:
                failed.append("DRIFT>BOUND")
            ok &= not failed
            flags = failed or (["spread>bound/3"] if max(spreads) > bound / 3 else [])
            print(f"{w:11} {name:15} {bound:6.3f} " + " ".join(
                f"{md:10.4f} {sp:8.4f}" for md, sp in zip(medians, spreads)) + f" {drift:7.4f} {' '.join(flags)}")
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {f"set{s} {w}": v for (s, w), v in values.items()}, indent=1))
    print("steady: pass" if ok else "steady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
