"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line (run with -s to see them all) and holding to its time budget.
"""

import random
import subprocess
import sys
import time

from conftest import DATA_DIR, circle_structure

from loopspace.cli import main
from loopspace.coderivations import (
    coderivation_relations,
    jacobi_coderivation_equiv,
    wedge_words,
)
from loopspace.goldman import (
    CyclicWord,
    goldman_bracket,
    jacobi_fuzz,
    load_fat_graph,
    random_reduced_cyclic_word,
)
from loopspace.homology import ChainMap, betti_table, induced_map
from loopspace.models import (
    based_complex,
    equivariant_model,
    gysin_report,
    load_model,
    loop_model,
    validate_model,
)
from loopspace.structures import (
    check_bv,
    check_gerstenhaber,
    load_structure_file,
    string_brackets,
)

from reference import derived_bracket
from test_coderivations import extension_oracle, random_rep


def _verdict(label, ok, started, budget):
    elapsed = time.monotonic() - started
    line = f"{label}: {'PASS' if ok and elapsed < budget else 'FAIL'} ({elapsed:.2f}s)"
    print(line)
    assert ok, label
    assert elapsed < budget, f"{label} exceeded {budget}s ({elapsed:.2f}s)"


def _data(name):
    return f"{DATA_DIR}/{name}"


def test_sphere_loop_ranks_all_one(capsys):
    started = time.monotonic()
    code = main(
        ["betti", "--model", _data("s2.min"), "--space", "loop", "--cutoff", "15"]
    )
    out = capsys.readouterr().out
    ok = code == 0 and out == "".join(f"{i}\t1\n" for i in range(16))
    with capsys.disabled():
        _verdict("two-sphere loop ranks are 1 in degrees 0-15", ok, started, 5.0)


def test_sphere_rotation_rank_parity():
    started = time.monotonic()
    lm = loop_model(load_model(_data("s2.min")))
    rot = ChainMap(lm.complex, lm.complex, lm.delta.degree, lm.delta.image, name="rotation")
    ok = True
    for m in range(1, 16):
        rank = induced_map(rot, m).rank
        want = 1 if m % 2 == 0 else 0
        ok = ok and rank == want
    _verdict(
        "two-sphere rotation map has rank 1 in even degrees 2-14, 0 in odd",
        ok, started, 5.0,
    )


def test_sphere_exact_sequence_through_12():
    started = time.monotonic()
    rep = gysin_report(loop_model(load_model(_data("s2.min"))), 12)
    ok = rep.ok and len(rep.rows) == 13
    for i, _hs, _hl, rank_u, rank_restr, rank_conn, exact in rep.rows:
        ok = ok and exact
        # restriction dies in even degrees past 0, connecting in odd
        want_restr = 1 if (i == 0 or i % 2 == 1) else 0
        want_conn = 1 if (i % 2 == 0 and i >= 2) else 0
        want_u = 1 if (i % 2 == 0 and i >= 2) else 0
        ok = ok and (rank_restr, rank_conn, rank_u) == (want_restr, want_conn, want_u)
    ok = ok and all(rep.factor_rotation) and all(rep.factor_zero)
    _verdict(
        "two-sphere exact sequence: exactness, parity, factorizations, degrees 0-12",
        ok, started, 10.0,
    )


def test_three_sphere_rank_tables():
    started = time.monotonic()
    model = load_model(_data("s3.min"))
    based = betti_table(based_complex(model), 14)
    ok = based == [1 if i % 2 == 0 else 0 for i in range(15)]
    free = betti_table(loop_model(model).complex, 12)
    ok = ok and free == [1, 0] + [1] * 11
    _verdict(
        "three-sphere based ranks alternate 1,0 through 14; "
        "free loop ranks are 1 except degree 1 through 12",
        ok, started, 5.0,
    )


def test_product_loop_ranks_satisfy_kunneth():
    started = time.monotonic()
    cutoff = 28
    s2, s3, s2xs3 = (
        betti_table(loop_model(load_model(_data(name))).complex, cutoff)
        for name in ("s2.min", "s3.min", "s2xs3.min")
    )
    # L(X x Y) = LX x LY, so the product ranks are the convolution
    want = [sum(s2[i] * s3[n - i] for i in range(n + 1)) for n in range(cutoff + 1)]
    _verdict(
        "loop ranks of S2 x S3 are the Kunneth convolution of S2 and S3 through 28",
        s2xs3 == want, started, 5.0,
    )


def test_model_validators_pass_on_all_fixtures():
    started = time.monotonic()
    ok = True
    for name in ("s2.min", "s3.min", "s2xs3.min", "cp2.min"):
        lm = loop_model(load_model(_data(name)))
        ok = ok and validate_model(lm).ok
        em = equivariant_model(lm)
        ok = ok and validate_model(em).ok
    _verdict(
        "loop and circle-equivariant models validate for all four spaces",
        ok, started, 5.0,
    )


def test_surface_bracket_suite():
    started = time.monotonic()
    torus = load_fat_graph(_data("torus.fat"))
    genus2 = load_fat_graph(_data("genus2.fat"))
    a, b = torus.word("a"), torus.word("b")
    got = goldman_bracket(a, b)
    ok = got in ({torus.word("a b"): 1}, {torus.word("a b"): -1})
    empty = {}
    for graph in (torus, genus2):
        rng = random.Random(2026)
        trivial = CyclicWord(graph, ())
        for _ in range(500):
            u = random_reduced_cyclic_word(graph, rng, 6)
            v = random_reduced_cyclic_word(graph, rng, 6)
            lhs = goldman_bracket(u, v)
            rhs = {k: -c for k, c in goldman_bracket(v, u).items()}
            ok = ok and lhs == rhs
            ok = ok and goldman_bracket(u, u) == empty
            ok = ok and goldman_bracket(u, trivial) == empty
        for _ in range(200):
            u = random_reduced_cyclic_word(graph, rng, 6)
            v = random_reduced_cyclic_word(graph, rng, 6)
            r = rng.randrange(len(u.letters))
            rotated = CyclicWord(graph, u.letters[r:] + u.letters[:r])
            ok = ok and goldman_bracket(rotated, v) == goldman_bracket(u, v)
        ok = ok and jacobi_fuzz(graph, trials=200, max_len=6, seed=2026) is None
    _verdict(
        "surface brackets: pinned value, antisymmetry x500, rotation x200, "
        "jacobi x200, self and trivial brackets vanish, both surfaces",
        ok, started, 60.0,
    )


def test_bv_and_gerstenhaber_suite():
    started = time.monotonic()
    circle = load_structure_file(_data("circle.struct"))
    bv = check_bv(circle)
    ok = bv.ok
    ok = ok and check_gerstenhaber(derived_bracket(circle)).ok
    for name in ("circle.struct", "ext_odd.struct", "torus_bracket.struct"):
        rep = check_bv(load_structure_file(_data(name)))
        agree = dict(rep.lines).get("formulations agree", "missing")
        ok = ok and agree is None
    bad_deg = check_gerstenhaber(load_structure_file(_data("ext_odd_bad.struct")))
    fails = bad_deg.failures()
    ok = ok and not bad_deg.ok and fails[0][0] == "bracket respects degrees"
    ok = ok and "bracket e e" in fails[0][1]
    bad_sq = check_bv(load_structure_file(_data("bad_delta.struct")))
    ok = ok and not bad_sq.ok
    ok = ok and bad_sq.failures()[0] == (
        "delta squares to zero", "a=p: delta(delta(a)) = r"
    )
    _verdict(
        "operator checkers: circle table passes, deviation bracket passes, "
        "both formulations agree, violations report exact witnesses",
        ok, started, 10.0,
    )


def test_identity_checks_scale_to_forty_elements(tmp_path, capsys):
    path = tmp_path / "circle19.struct"
    path.write_text(circle_structure(19), encoding="utf-8")
    # (check, report lines, budget in seconds)
    for what, count, budget in (("bv", 9, 5.0), ("gerstenhaber", 7, 3.0)):
        started = time.monotonic()
        code = main(["verify", what, "--structure", str(path)])
        lines = capsys.readouterr().out.splitlines()
        ok = code == 0 and len(lines) == count
        ok = ok and all(l.startswith("check ") and l.endswith(": pass") for l in lines)
        with capsys.disabled():
            _verdict(
                f"verify {what} passes on the 40-element circle table (windings 0..19)",
                ok, started, budget,
            )


def test_coderivation_suite():
    started = time.monotonic()
    circle = load_structure_file(_data("circle.struct"))
    sb = string_brackets(circle, max_arity=3)
    labels = dict(sb.checks.lines)
    ok = sb.ok
    ok = ok and labels["bracket is graded antisymmetric"] is None
    ok = ok and labels["bracket satisfies the graded Jacobi identity"] is None

    # independent subset-sum oracle, three-element basis, words to length 4
    rng = random.Random(404)
    sdegs = (1, 2, 3)
    for k in (1, 2, 3):
        rep = random_rep(rng, k, sdegs=sdegs)
        for word in wedge_words(sdegs, 4):
            ok = ok and rep.apply_word(word) == extension_oracle(rep, word)

    torus = load_structure_file(_data("torus_bracket.struct"))
    out = string_brackets(torus, max_arity=3)
    ok = ok and out.ok
    ok = ok and coderivation_relations(out.reps, 4, torus.string_space.names).ok
    ok = ok and jacobi_coderivation_equiv(torus.string_space, out.bracket, 4).ok
    _verdict(
        "higher operations: circle brackets lawful, extension matches "
        "subset-sum oracle to length 4, relation and square-zero reports clean",
        ok, started, 30.0,
    )


def test_reports_are_deterministic():
    started = time.monotonic()
    commands = [
        ["betti", "--model", _data("s2.min"), "--cutoff", "15"],
        ["gysin", "--model", _data("s2.min"), "--cutoff", "12"],
        ["goldman", "--surface", _data("genus2.fat"), "--a", "a b c", "--b", "b"],
        ["verify", "bv", "--structure", _data("circle.struct")],
        ["verify", "coderivations", "--structure", _data("torus_bracket.struct"),
         "--word-len", "3"],
    ]
    ok = True
    for argv in commands:
        cmd = [sys.executable, "-m", "loopspace"] + argv
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        ok = ok and first.stdout == second.stdout and first.stdout
    _verdict(
        "repeated invocations produce byte-identical reports",
        bool(ok), started, 60.0,
    )
