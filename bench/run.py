"""Benchmark of loopspace reports, timed end to end and per module.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]

With no --workload all four workloads run, interleaved.

Users run one report at a time and wait for it, so the load is a closed
loop with one client.  Every command starts cold, so each one runs in a
fresh worker interpreter (bench/worker.py) that calls loopspace.cli.main
on inputs generated from the seed (bench/gen.py).  A round runs every
command of every selected workload once; rounds repeat until the time
budget (S seconds per workload) is spent, and every other round runs the
commands in reverse order, so slow drift of the host falls evenly on all
of them.  Each report is checked by oracles that do not go through
loopspace, and against its digest recorded from the seed commit in
bench/expected.json (bench/record.py writes that file); a report with no
recorded digest counts as failed.

The host's speed drifts: on a 2-core VM a fixed pure-Python loop took
anywhere from 0.8x to 2.4x its median, in spells that last seconds to
minutes, so medians of raw times over one 30-second run still spread by
up to a quarter (quartile distance over median) from run to run.  Each
worker therefore also times a fixed reference loop just before and just
after its command, and the end-to-end times are scaled to a host on
which that loop takes REFERENCE_S seconds:
scaled = seconds * REFERENCE_S / reference loop.
The unscaled wall times are printed too, for information.

End-to-end metrics (--trace 0), medians over rounds, per workload:
  wall_norm_s     sum of the scaled command times of one round
  max_cmd_norm_s  the slowest scaled single command of one round
  peak_rss_mb     the largest peak resident memory (VmHWM) of a worker, in MiB
  setup_s         a fresh interpreter up to the end of `import loopspace.cli`,
                  unscaled (median over probes spread across the rounds)
  fail_ratio      commands that raised, exited with the wrong code or failed
                  an oracle, over commands attempted; in the JSON as failed
                  and attempted, because a metric there must never read 0

--trace 1 runs every round twice, untraced and traced (bench/tracing.py),
and reports the per-layer self times and counters of the traced runs, and
trace.overhead_ratio, the traced wall_norm_s over the untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give every metric by
name with its unit and sample count, and the provenance.  A record of the
run with every sample goes to .bench_results/.

`python3 bench/gen.py` self-tests the input generator, and
`python3 bench/steady.py` checks that two sets of runs agree within the
bounds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MIN_ROUNDS = 3
SETUP_PROBES_PER_ROUND = 3
HARD_LIMIT_S = 150
WORKER_TIMEOUT_S = 120

# Workload sizes; see BENCHMARK.json for why each workload is there.
BETTI = [("string", "s2xs3", 12), ("loop", "s2xs3", 18), ("string", "cp2", 22)]
GYSIN = [("s2", 16), ("s2xs3", 8)]
WORD_LENGTHS = (60, 120)
# The Goldman words and the fuzz seed are fixed, not drawn from --seed:
# between seeds the bracket of two words of these lengths took 0.6-1.5 s
# and peaked at 29-37 MiB, and with --max-len 10 the fuzzing work varied
# twofold, which would swamp any change in their speed or memory.
WORDS_SEED = 1
FUZZ_TRIALS, FUZZ_MAX_LEN, FUZZ_SEED = 100, 10, 1
CIRCLE_WINDINGS = 10
TORUS_BOX, CODERIVATION_WORD_LEN = 2, 6

# Time of bench/worker.py's reference loop on the host the benchmark was
# tuned on (2-core Xeon VM, Python 3.11.7), about its median there.
REFERENCE_S = 0.02

ROUND_METRICS = ("wall_norm_s", "max_cmd_norm_s", "peak_rss_mb")


class Command:
    """One loopspace invocation and the oracle its report must satisfy.

    ``check`` takes the round's reports of the workload, keyed by command
    key, and returns a problem string or None.  ``recorded`` is the key of
    the report's digest in bench/expected.json.
    """

    def __init__(self, key, argv, check, recorded):
        self.key = key
        self.argv = argv
        self.check = check
        self.recorded = recorded


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def kunneth_loop_s2xs3(cutoff):
    """Loop Betti numbers of S2 x S3 as the convolution of those of S2
    (1 in every degree) and S3 (1, 0, 1, 1, 1, ...)."""
    s2 = [1] * (cutoff + 1)
    s3 = [1, 0] + [1] * (cutoff - 1)
    return [sum(s2[i] * s3[n - i] for i in range(n + 1)) for n in range(cutoff + 1)]


def betti_check(key, cutoff, want=None):
    def check(reports):
        rows = [line.split("\t") for line in reports[key].splitlines()]
        if [int(r[0]) for r in rows] != list(range(cutoff + 1)):
            return "degrees are not 0..cutoff"
        if want is not None and [int(r[1]) for r in rows] != want:
            return "loop Betti numbers differ from the Kuenneth convolution"
        return None
    return check


def gysin_check(key, cutoff):
    def check(reports):
        lines = reports[key].splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        factor = [l for l in lines if l.startswith("# factorization")]
        if len(rows) != cutoff + 1 or not all(l.endswith("\ttrue") for l in rows):
            return "a row of the long exact sequence is not exact"
        if len(factor) != 2 or not all(l.endswith(": pass") for l in factor):
            return "a factorization line does not pass"
        return None
    return check


def verify_check(key):
    def check(reports):
        lines = reports[key].splitlines()
        if not lines or not all(l.startswith("check ") and l.endswith(": pass") for l in lines):
            return "a check line does not pass"
        return None
    return check


def parse_combo(report):
    out = {}
    for line in report.splitlines():
        coeff, word = line.split("\t")
        out[word] = int(coeff)
    return out


def antisymmetry_check(reports):
    ab, ba = parse_combo(reports["ab"]), parse_combo(reports["ba"])
    if not ab or ab != {w: -c for w, c in ba.items()}:
        return "the two bracket orders are not exact negatives"
    return None


def fuzz_check(reports):
    return None if reports["fuzz"] == "pass\n" else "jacobi-fuzz did not print pass"


def build_workloads(seed, work):
    """Write the seeded inputs into ``work``; return {workload: [Command]}."""
    rng = random.Random(seed)

    def write(name, text):
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    models = {m: write(f"{m}.min", gen.model_text(m, rng)) for m in ("s2", "s2xs3", "cp2")}
    surface = write("genus2.fat", gen.GENUS2_FAT)
    circle = write("circle.struct", gen.circle_table(CIRCLE_WINDINGS).text(rng))
    torus = write("torus.struct", gen.torus_table(TORUS_BOX).text(rng))
    word_rng = random.Random(WORDS_SEED)
    words = [gen.random_word(word_rng, n) for n in WORD_LENGTHS]

    betti = []
    for space, model, cutoff in BETTI:
        key = f"{space} {model} {cutoff}"
        want = kunneth_loop_s2xs3(cutoff) if (space, model) == ("loop", "s2xs3") else None
        argv = ["betti", "--space", space, "--model", models[model], "--cutoff", str(cutoff)]
        betti.append(Command(key, argv, betti_check(key, cutoff, want), f"betti {key}"))
    gysin = [
        Command(f"{model} {cutoff}", ["gysin", "--model", models[model], "--cutoff", str(cutoff)],
                gysin_check(f"{model} {cutoff}", cutoff), f"gysin {model} {cutoff}")
        for model, cutoff in GYSIN
    ]
    goldman = [
        Command("ab", ["goldman", "--surface", surface, "--a", words[0], "--b", words[1]],
                antisymmetry_check, "goldman ab"),
        Command("ba", ["goldman", "--surface", surface, "--a", words[1], "--b", words[0]],
                antisymmetry_check, "goldman ba"),
        Command("fuzz", ["jacobi-fuzz", "--surface", surface, "--trials", str(FUZZ_TRIALS),
                         "--max-len", str(FUZZ_MAX_LEN), "--seed", str(FUZZ_SEED)],
                fuzz_check, "goldman fuzz"),
    ]
    identities = [
        Command(what, ["verify", what, "--structure", path] + extra, verify_check(what),
                f"identities {what}")
        for what, path, extra in (
            ("bv", circle, []),
            ("gerstenhaber", circle, []),
            ("coderivations", torus, ["--word-len", str(CODERIVATION_WORD_LEN)]),
        )
    ]
    return {"betti": betti, "gysin": gysin, "goldman": goldman, "identities": identities}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Fixed string hashing, so set and dict layouts do not vary between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv, trace, env):
    """Run one command in a fresh worker; returns its JSON outcome."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "1" if trace else "0", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"code": None, "seconds": 0.0, "reference_s": REFERENCE_S, "rss_kb": 0, "stdout": "",
                "stderr": proc.stderr, "counts": None}
    return json.loads(proc.stdout)


def setup_probe(env):
    """Seconds from starting an interpreter to the end of its loopspace import."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import loopspace.cli, time; print(time.monotonic())"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return float(proc.stdout) - start


def oracle_problems(commands, outcomes):
    """Problems per command key: exit code and oracle."""
    reports = {key: o["stdout"] for key, o in outcomes.items()}
    problems = {}
    for cmd in commands:
        o = outcomes[cmd.key]
        if o["code"] != 0:
            tail = o["stderr"].strip().splitlines()[-1:] or [""]
            problems[cmd.key] = f"exit code {o['code']}: {tail[0]}"
            continue
        problem = cmd.check(reports)
        if problem is not None:
            problems[cmd.key] = problem
    return problems


def judge(commands, outcomes, expected):
    """Problems per command key: exit code, oracle, recorded digest."""
    problems = oracle_problems(commands, outcomes)
    for cmd in commands:
        if cmd.key in problems:
            continue
        want = expected.get(cmd.recorded)
        if want is None:
            problems[cmd.key] = f"no digest recorded for {cmd.recorded!r}"
        elif digest(outcomes[cmd.key]["stdout"]) != want:
            problems[cmd.key] = "report differs from the one recorded at the seed commit"
    return problems


def measure(workloads, selected, seconds, trace, expected):
    """Round-robin rounds until the budget is spent; returns raw samples."""
    env = worker_env()
    jobs = [(w, False) for w in selected] + [(w, True) for w in selected if trace]
    samples = {job: [] for job in jobs}
    setup = []
    problems = []
    start = time.monotonic()
    budget = seconds * len(selected)
    round_times = []
    while True:
        if round_times:
            elapsed, mean = time.monotonic() - start, statistics.fmean(round_times)
            if elapsed + mean > HARD_LIMIT_S or (len(round_times) >= MIN_ROUNDS and elapsed + mean > budget):
                break
        t0 = time.monotonic()
        sequence = [(job, cmd) for job in jobs for cmd in workloads[job[0]]]
        if len(round_times) % 2:
            sequence.reverse()
        setup += [setup_probe(env) for _ in range(SETUP_PROBES_PER_ROUND)]
        outcomes = {job: {} for job in jobs}
        for job, cmd in sequence:
            outcomes[job][cmd.key] = run_worker(cmd.argv, job[1], env)
        for job in jobs:
            results = outcomes[job]
            found = judge(workloads[job[0]], results, expected)
            problems += [(job[0], job[1], key, p) for key, p in found.items()]
            counts = {}
            for o in results.values():
                for k, v in (o["counts"] or {}).items():
                    counts[k] = counts.get(k, 0) + v
            times = [o["seconds"] for o in results.values()]
            scaled = [o["seconds"] * REFERENCE_S / o["reference_s"] for o in results.values()]
            samples[job].append({
                "wall_norm_s": sum(scaled),
                "max_cmd_norm_s": max(scaled),
                "wall_s": sum(times),
                "max_cmd_s": max(times),
                "peak_rss_mb": max(o["rss_kb"] for o in results.values()) / 1024,
                "commands": len(results),
                "failed": len(found),
                "counts": counts,
            })
        round_times.append(time.monotonic() - t0)
    return samples, setup, problems


def metrics_of(spec, samples, setup, selected, trace):
    """{name: (value, unit, sample count)}; names get a workload prefix
    when more than one workload ran."""
    out = {}
    for w in selected:
        prefix = f"{w}." if len(selected) > 1 else ""
        plain = samples[(w, False)]
        if not trace:
            for m in spec["end_to_end"]:
                if m["name"] in ROUND_METRICS:
                    out[prefix + m["name"]] = (statistics.median(s[m["name"]] for s in plain), m["unit"], len(plain))
            continue
        traced = samples[(w, True)]
        layers = [tracing.layer_metrics(s["counts"]) for s in traced]
        overhead = (statistics.median(s["wall_norm_s"] for s in traced)
                    / statistics.median(s["wall_norm_s"] for s in plain))
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                out[prefix + m["name"]] = (overhead, m["unit"], len(traced))
            else:
                out[prefix + m["name"]] = (statistics.median(l.get(m["name"], 0) for l in layers), m["unit"], len(traced))
    if not trace:
        out["setup_s"] = (statistics.median(setup), "s", len(setup))
    return out


def read_commit():
    """Commit of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "loopspace").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    selected = args.workload or names
    if not (ROOT / "src" / "loopspace" / "cli.py").is_file():
        print(f"error: no loopspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workloads = build_workloads(args.seed, work)
        samples, setup, problems = measure(workloads, selected, args.seconds, args.trace, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = metrics_of(spec, samples, setup, selected, args.trace)
    attempted = sum(s["commands"] for runs in samples.values() for s in runs)
    failed = sum(s["failed"] for runs in samples.values() for s in runs)
    provenance = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": read_commit(),
        "source_sha256": source_digest(),
        "workloads": selected,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    for w, traced, key, problem in problems[:10]:
        print(f"FAIL {w} {key}{' (traced)' if traced else ''}: {problem}", file=sys.stderr)

    print("# provenance " + json.dumps(provenance))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48} {value:14.6f} {unit:6} median of {n}")
    for w in selected:
        prefix = f"{w}." if len(selected) > 1 else ""
        plain = samples[(w, False)]
        for name in ("wall_s", "max_cmd_s"):
            value = statistics.median(s[name] for s in plain)
            print(f"{prefix + name:48} {value:14.6f} {'s':6} median of {len(plain)}, unscaled")
        runs = [s for (sw, _), rs in samples.items() if sw == w for s in rs]
        a, f = sum(s["commands"] for s in runs), sum(s["failed"] for s in runs)
        print(f"{prefix + 'fail_ratio':48} {f / a:14.6f} {'1':6} {f} of {a} commands")

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    tag = "all" if len(selected) > 1 else selected[0]
    record = {
        "provenance": provenance,
        "metrics": {n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in metrics.items()},
        "samples": {f"{w}{' traced' if t else ''}": runs for (w, t), runs in samples.items()},
        "setup_s": setup,
        "problems": problems,
    }
    (results / f"{tag}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
