"""Mutants as data: each row is one edit of the source and the tests that
must fail once it is made.

    python3 tests/mutants.py [--only NAME]

copies src/ and tests/ into a temporary directory, runs the rows' tests
there once unmutated (they must pass), then for each row in turn applies
its edit to a fresh copy of its file, runs only its tests with pytest,
one process at a time, and prints the mutant as killed or survived.  It
exits 1 if any mutant survived, and 2 if the tests fail unmutated or a
row's tests cannot run.  tests/test_mutants.py checks, in Tier-1, that
row names are unique and every row still changes its text, applies once
and names distinct tests that exist, so a refactor that moves mutated
code must update its row.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# file is relative to the repository root; old must occur in it exactly
# once; tests are pytest node ids, each run as named
Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = [
    Mutant("emit-writes-first-piece", "src/loopspace/cli.py",
           "stream.writelines(pieces)", 'stream.write(next(iter(pieces), ""))',
           ["tests/test_cli.py::test_betti_matches_library",
            "tests/test_cli.py::test_out_streams_and_a_failed_write_leaves_no_trace"]),
    Mutant("emit-joins-pieces", "src/loopspace/cli.py",
           "stream.writelines(pieces)", 'stream.write("".join(pieces))',
           ["tests/test_cli.py::test_goldman_holds_less_than_its_report",
            "tests/test_cli.py::test_out_streams_and_a_failed_write_leaves_no_trace"]),
    Mutant("goldman-lines-in-dict-order", "src/loopspace/goldman.py",
           "for key in sorted(combo))", "for key in combo)",
           ["tests/test_goldman.py::test_format_combo",
            "tests/test_golden.py::test_golden_cli"]),
    Mutant("empty-class-prints-empty", "src/loopspace/goldman.py",
           "or '1'}", "or ''}",
           ["tests/test_goldman.py::test_format_combo",
            "tests/test_goldman.py::test_canonical_form_and_order_match_reference"]),
    Mutant("arity-stop-removed", "src/loopspace/structures.py",
           "if not prods:", "if False:",
           ["tests/test_structures.py::test_operations_stop_at_the_first_arity_without_products",
            "tests/test_scaling.py::test_a_far_arity_costs_what_a_near_one_does"]),
    Mutant("coproduct-skips-only-short-words", "src/loopspace/coderivations.py",
           "if len(word) < rep.k or not any(", "if len(word) < rep.k and not any(",
           ["tests/test_scaling.py::test_a_far_arity_costs_what_a_near_one_does"]),
    Mutant("turn-row-read-on-shared-runs", "src/loopspace/goldman.py",
           "if y != nxt else _pair_order(", "if y else _pair_order(",
           ["tests/test_goldman.py::test_bracket_matches_reference",
            "tests/test_goldman.py::test_long_words_match_reference"]),
    Mutant("overlap-skip-forgets-forward", "src/loopspace/goldman.py",
           "if ba == bb or ba == fb:", "if ba == bb:",
           ["tests/test_goldman.py::test_bracket_matches_reference",
            "tests/test_goldman.py::test_pinned_torus_brackets"]),
    Mutant("derivation-sign-one-shift", "src/loopspace/checks.py",
           "ksign((self.deg[a] + s) * (self.deg[b] + t))",
           "ksign((self.deg[a] + s) * (self.deg[b] + s))",
           ["tests/test_structures.py::test_circle_bv",
            "tests/test_structures.py::test_identities_match_reference_on_forty_elements"]),
    Mutant("representatives-share-a-tag", "src/loopspace/homology.py",
           "if tracker.add({**v, dim + len(reps): 1}):", "if tracker.add({**v, dim: 1}):",
           ["tests/test_homology.py::test_class_of_roundtrip",
            "tests/test_homology.py::test_identity_chain_map_induces_identity"]),
    Mutant("chain-map-rhs-unsigned", "src/loopspace/homology.py",
           "f.src.diff.image(mono), scale=sign)", "f.src.diff.image(mono))",
           ["tests/test_homology.py::test_rotation_is_a_chain_map_and_squares_to_zero"]),
    Mutant("chain-map-degree-check-from-below", "src/loopspace/homology.py",
           "alg.monomial_degree(m) == n + f.degree", "alg.monomial_degree(m) >= n + f.degree",
           ["tests/test_homology.py::test_map_of_the_wrong_degree_is_rejected",
            "tests/test_homology.py::test_an_off_degree_image_is_reported_at_the_degree_it_is_read"]),
]


def _pytest(tests, where):
    """Exit code of pytest running tests in the copy at where."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description="run the mutants of MUTANTS")
    parser.add_argument("--only", choices=[m.name for m in MUTANTS])
    args = parser.parse_args(argv)
    rows = [m for m in MUTANTS if args.only in (None, m.name)]
    with tempfile.TemporaryDirectory(prefix="loopspace-mutants-") as tmp:
        where = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, where / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", where)
        if _pytest(sorted({t for m in rows for t in m.tests}), where) != 0:
            print("the named tests fail unmutated")
            return 2
        code = 0
        for m in rows:
            path = where / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.old, m.new, 1), encoding="utf-8")
            try:
                status = _pytest(m.tests, where)
            finally:
                path.write_text(text, encoding="utf-8")
            # pytest exits 1 when a test failed; 2 to 5 mean it could not run them
            outcome = {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")
            print(f"{m.name}: {outcome}", flush=True)
            if status != 1:
                code = max(code, 1 if status == 0 else 2)
    return code


if __name__ == "__main__":
    sys.exit(main())
