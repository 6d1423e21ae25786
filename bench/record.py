"""Record the digest of every benchmark report into bench/expected.json.

    python3 bench/record.py

Run it at a commit whose reports are right; bench/run.py then requires
every later report to match.  Every report must pass its oracle first.
The seed only rescales the inputs, so the reports must not depend on it:
they are recorded after checking that seeds 1 and 2 give the same bytes.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main():
    env = run.worker_env()
    expected = {}
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for seed in (1, 2):
        work = Path(tempfile.mkdtemp(dir=scratch))
        try:
            for name, commands in run.build_workloads(seed, work).items():
                outcomes = {c.key: run.run_worker(c.argv, False, env) for c in commands}
                problems = run.oracle_problems(commands, outcomes)
                if problems:
                    raise SystemExit(f"seed {seed} {name}: {problems}")
                for c in commands:
                    value = run.digest(outcomes[c.key]["stdout"])
                    if expected.setdefault(c.recorded, value) != value:
                        raise SystemExit(f"{c.recorded}: seeds 1 and 2 give different reports")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
