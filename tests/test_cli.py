"""Command line behavior: exit codes, report layout, determinism."""

import contextlib
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile

import pytest
from conftest import DATA_DIR
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace.cli import main
from loopspace.homology import betti_table, format_betti_table
from loopspace.models import load_model, loop_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_matches_library(capsys, data_path):
    code, out, err = run(
        capsys, "betti", "--model", data_path("s2.min"), "--cutoff", "9"
    )
    assert code == 0 and err == ""
    cx = loop_model(load_model(data_path("s2.min"))).complex
    assert out == format_betti_table(betti_table(cx, 9))
    assert out.splitlines()[0] == "0\t1"


def test_betti_based_space(capsys, data_path):
    code, out, _ = run(
        capsys,
        "betti", "--model", data_path("s3.min"),
        "--space", "based", "--cutoff", "6",
    )
    assert code == 0
    assert out == "0\t1\n1\t0\n2\t1\n3\t0\n4\t1\n5\t0\n6\t1\n"


def test_many_generators(capsys, tmp_path):
    # bases are built degree by degree without recursion, so 2400 loop
    # generators cannot reach the recursion limit
    path = tmp_path / "many.min"
    path.write_text("".join(f"gen g{i} 3\n" for i in range(1200)))
    argv = ("betti", "--space", "loop", "--model", str(path), "--cutoff", "1")
    assert run(capsys, *argv) == (0, "0\t1\n1\t0\n", "")


def test_loop_model_report(capsys, data_path):
    code, out, _ = run(capsys, "loop-model", "--model", data_path("s2.min"))
    assert code == 0
    assert "gen xb 1" in out
    assert "d yb = -2*xb*x" in out
    assert "delta y = yb" in out
    assert "check rotation squares to zero: pass" in out
    assert "FAIL" not in out


def test_string_model_report(capsys, data_path):
    code, out, _ = run(capsys, "string-model", "--model", data_path("s2.min"))
    assert code == 0
    assert "gen u 2" in out
    assert "d y = x^2 + u*yb" in out
    assert "FAIL" not in out


def test_gysin_report(capsys, data_path):
    code, out, _ = run(
        capsys, "gysin", "--model", data_path("s2.min"), "--cutoff", "6"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[6].startswith("# degree\thString\thLoop")
    assert lines[7] == "0\t1\t1\t0\t1\t0\ttrue"
    assert lines[-2].endswith("pass")
    assert lines[-1].endswith("pass")
    assert all("false" not in l for l in lines)


def test_goldman_bracket_output(capsys, data_path):
    code, out, _ = run(
        capsys,
        "goldman", "--surface", data_path("torus.fat"), "--a", "a", "--b", "b",
    )
    assert code == 0
    assert out == "1\ta b\n"


def test_goldman_empty_result(capsys, data_path):
    code, out, _ = run(
        capsys,
        "goldman", "--surface", data_path("torus.fat"), "--a", "a", "--b", "a^-",
    )
    assert code == 0
    assert out == ""


def test_jacobi_fuzz_pass(capsys, data_path):
    code, out, _ = run(
        capsys,
        "jacobi-fuzz", "--surface", data_path("torus.fat"),
        "--trials", "40", "--max-len", "5",
    )
    assert code == 0
    assert out == "pass\n"


def test_jacobi_fuzz_fail_report(capsys, monkeypatch, data_path):
    # a bracket with one coefficient off must fail the fuzz with a witness
    from loopspace import goldman
    from loopspace.checks import add_into

    true_bracket = goldman._bracket

    def perturbed(graph, a, b):
        # keys order like token sequences: the least key is the least class
        out = true_bracket(graph, a, b)
        if out:
            out[min(out)] += 1
        return out

    monkeypatch.setattr(goldman, "_bracket", perturbed)
    graph = goldman.load_fat_graph(data_path("torus.fat"))
    witness = goldman.jacobi_fuzz(graph, trials=40, max_len=5)
    assert witness is not None and witness["residual"]
    u, v, w = witness["u"], witness["v"], witness["w"]
    a, b, c = u.key, v.key, w.key
    residual = goldman.bracket_combo(graph, {a: 1}, perturbed(graph, b, c))
    add_into(residual, goldman.bracket_combo(graph, perturbed(graph, a, b), {c: 1}), -1)
    add_into(residual, goldman.bracket_combo(graph, {b: 1}, perturbed(graph, a, c)), -1)
    residual = {goldman._wrap(graph, k): n for k, n in residual.items()}
    assert residual == witness["residual"]

    code, out, _ = run(
        capsys,
        "jacobi-fuzz", "--surface", data_path("torus.fat"),
        "--trials", "40", "--max-len", "5",
    )
    assert code == 1
    assert out == (
        f"FAIL trial {witness['trial']}\nu\t{u}\nv\t{v}\nw\t{w}\n"
        "residual:\n" + goldman.format_combo(residual)
    )


def test_verify_pass_commands(capsys, data_path):
    for what in ("gerstenhaber", "bv"):
        code, out, _ = run(
            capsys, "verify", what, "--structure", data_path("circle.struct")
        )
        assert code == 0, out
        assert "FAIL" not in out
    code, out, _ = run(
        capsys,
        "verify", "string-brackets",
        "--structure", data_path("torus_bracket.struct"),
    )
    assert code == 0
    assert "bracket S_1_0 S_0_1 = S_1_1" in out
    code, out, _ = run(
        capsys,
        "verify", "coderivations",
        "--structure", data_path("torus_bracket.struct"),
        "--arities", "2,3", "--word-len", "3",
    )
    assert code == 0
    assert "check formulations agree: pass" in out


def test_identity_failures_exit_1(capsys, data_path):
    code, out, _ = run(
        capsys,
        "verify", "gerstenhaber", "--structure", data_path("ext_odd_bad.struct"),
    )
    assert code == 1
    assert "check bracket respects degrees: FAIL" in out
    code, out, _ = run(
        capsys, "verify", "bv", "--structure", data_path("bad_delta.struct")
    )
    assert code == 1
    assert "check delta squares to zero: FAIL a=p: delta(delta(a)) = r" in out


def test_unusable_input_exit_2(capsys, data_path, tmp_path):
    cases = [
        ("betti", "--model", str(tmp_path / "missing.min")),
        ("goldman", "--surface", data_path("torus.fat"), "--a", "q", "--b", "a"),
        ("verify", "gerstenhaber", "--structure", data_path("circle.struct")),
    ]
    # circle.struct has no product/bracket issue; swap in a gerstenhaber
    # target with no bracket table instead
    plain = tmp_path / "plain.struct"
    plain.write_text("basis T 0\nproduct T T = T\n")
    cases[2] = ("verify", "gerstenhaber", "--structure", str(plain))
    bad_model = tmp_path / "bad.min"
    bad_model.write_text("gen x 2\nd x = x\n")  # wrong degree, rejected
    cases.append(("betti", "--model", str(bad_model)))
    low = tmp_path / "low.min"
    low.write_text("gen x 1\n")
    cases.append(("betti", "--model", str(low)))
    square = tmp_path / "square.min"
    square.write_text("gen x 2\ngen y 3\ngen z 4\nd y = x^2\nd z = y\n")
    cases.append(("betti", "--model", str(square)))
    no_sbasis = tmp_path / "no_sbasis.struct"
    no_sbasis.write_text("basis T 0\nproduct T T = T\n")
    cases.append(("verify", "string-brackets", "--structure", str(no_sbasis)))
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ")
        assert out == ""


def _one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


# Tokens a mutation may swap in: a zero denominator, a negative exponent,
# words no parser knows, a lone caret, an overlong name and a numeral past
# Python's 4 300-digit conversion limit.
SWAPS = [b"1/0", b"x^-1", b"nan", "\u00e9".encode(), b"^", b"q" * 300, b"1" * 5000]


@st.composite
def mutated_fixtures(draw):
    """A file of tests/data with one to three lines deleted, duplicated or
    with one token swapped, or with a \\xff byte inserted, and the command
    line that reads it, at a small size."""
    name = draw(st.sampled_from(sorted(os.listdir(DATA_DIR))))
    with open(os.path.join(DATA_DIR, name), "rb") as fh:
        data = fh.read()
    for _ in range(draw(st.integers(1, 3))):
        lines = data.splitlines(keepends=True)
        how = draw(st.sampled_from(["delete", "duplicate", "swap", "byte"]))
        if how == "byte" or not lines:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = list(re.finditer(rb"\S+", lines[i]))
            if tokens:
                t = tokens[draw(st.integers(0, len(tokens) - 1))]
                lines[i] = lines[i][:t.start()] + draw(st.sampled_from(SWAPS)) + lines[i][t.end():]
        data = b"".join(lines)
    if name.endswith(".min"):
        argv = ["gysin", "--model", "{f}", "--cutoff", str(draw(st.integers(0, 4)))]
    elif name.endswith(".fat"):
        argv = ["jacobi-fuzz", "--surface", "{f}", "--trials", "5"]
    else:
        argv = ["verify", "coderivations", "--structure", "{f}", "--word-len", "3"]
    return data, argv


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_mutated_inputs_keep_the_exit_code_contract(case):
    data, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{f}", path) for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert _one_error_line(code, out.getvalue(), err.getvalue()), err.getvalue()


@pytest.mark.parametrize("where, reason", [
    ("missing/x", "No such file or directory"),
    ("", "Is a directory"),
])
def test_out_errors_name_the_out_path(where, reason, capsys, data_path, tmp_path):
    # the temporary file beside the target never shows in the message, and
    # none is left behind
    target = tmp_path / "out"
    target.mkdir()
    out_path = str(target / where) if where else str(target)
    argv = ("betti", "--model", data_path("s2.min"), "--out", out_path)
    errs = []
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert _one_error_line(code, out, err), err
        errs.append(err)
    assert errs[0] == errs[1] == f"error: {out_path}: {reason}\n"
    assert not list(tmp_path.rglob(".loopspace-*"))


def test_out_failed_rename_removes_the_temporary_file(capsys, data_path, tmp_path,
                                                     monkeypatch):
    # the report is written in full but the rename fails: exit 2 names the
    # target, and the temporary file beside it is removed
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    out_path = str(tmp_path / "report.tsv")
    code, out, err = run(capsys, "betti", "--model", data_path("s2.min"), "--out", out_path)
    assert _one_error_line(code, out, err), err
    assert err == f"error: {out_path}: Permission denied\n"
    assert list(tmp_path.iterdir()) == []


def test_out_keeps_the_mode_a_plain_write_leaves(capsys, data_path, tmp_path):
    # a new report gets 0o666 less the umask, and a rewritten one keeps its
    # own mode, as open(path, "w") would leave them
    new, old = tmp_path / "new.tsv", tmp_path / "old.tsv"
    old.write_text("stale\n")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for target in (new, old):
            code, out, _ = run(capsys, "betti", "--model", data_path("s2.min"),
                               "--out", str(target))
            assert (code, out) == (0, "")
    finally:
        os.umask(umask)
    assert [p.stat().st_mode & 0o777 for p in (new, old)] == [0o644, 0o640]
    assert old.read_bytes() == new.read_bytes() != b"stale\n"


def test_a_far_arity_prints_what_the_near_ones_print(capsys, data_path):
    # every torus operation past arity 2 is 0, so a far arity adds no line
    outs = []
    for arities in ("2,3,4", "2,100000"):
        code, out, err = run(capsys, "verify", "string-brackets", "--structure",
                             data_path("torus_bracket.struct"), "--arities", arities)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_a_far_arity_asks_no_combination_longer_than_its_word(capsys, data_path, monkeypatch):
    # the coproduct check skips a word shorter than the arity, as the
    # extension does, instead of asking combinations for a million indices
    # of a four-letter word; the report is the one recorded before the skip
    asked = []
    real = itertools.combinations

    def combinations(iterable, r):
        pool = tuple(iterable)
        asked.append((len(pool), r))
        return real(pool, r)

    monkeypatch.setattr(itertools, "combinations", combinations)
    code, out, err = run(capsys, "verify", "coderivations", "--structure",
                         data_path("torus_bracket.struct"), "--arities", "2,1000000")
    assert (code, err) == (0, "")
    assert asked and all(r <= n for n, r in asked), max(asked, key=lambda a: a[1] - a[0])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5cacc419ce46cbde44e854396593223b57e85412728f0f031100719574eb88c5")


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "--model", "{f}"),
        ("goldman", "--surface", "{f}", "--a", "a", "--b", "b"),
        ("verify", "bv", "--structure", "{f}"),
    ],
)
def test_non_utf8_input_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "input"
    path.write_bytes(b"gen x 2\n\xff\n")
    code, out, err = run(capsys, *(a.replace("{f}", str(path)) for a in argv))
    assert _one_error_line(code, out, err), err
    assert f"error: {path}: " in err, err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("betti", "--model", "{d}/s2.min", "--cutoff", "-1"), "--cutoff"),
        (("gysin", "--model", "{d}/s2.min", "--cutoff", "-1"), "--cutoff"),
        (("jacobi-fuzz", "--surface", "{d}/torus.fat", "--trials", "-5"), "--trials"),
        (("jacobi-fuzz", "--surface", "{d}/torus.fat", "--trials", "0"), "--trials"),
        (("jacobi-fuzz", "--surface", "{d}/torus.fat", "--max-len", "0"), "--max-len"),
        (
            ("verify", "coderivations", "--structure", "{d}/torus_bracket.struct",
             "--word-len", "2"),
            "--word-len",
        ),
    ],
)
def test_out_of_range_options_exit_2(capsys, argv, flag):
    from conftest import DATA_DIR

    code, out, err = run(capsys, *(a.replace("{d}", DATA_DIR) for a in argv))
    assert _one_error_line(code, out, err), err
    assert flag in err


def test_out_flag_atomic_write(capsys, data_path, tmp_path):
    target = tmp_path / "report.tsv"
    code, out, _ = run(
        capsys,
        "betti", "--model", data_path("s2.min"), "--cutoff", "8",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    direct = main(["betti", "--model", data_path("s2.min"), "--cutoff", "8"])
    stdout_text = capsys.readouterr().out
    assert direct == 0
    assert target.read_bytes() == stdout_text.encode()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".loopspace-")]
    assert leftovers == []


@pytest.mark.parametrize(
    "argv",
    [
        ["gysin", "--model", "{d}/s2.min", "--cutoff", "8"],
        ["goldman", "--surface", "{d}/genus2.fat", "--a", "a b c", "--b", "c d"],
        ["verify", "bv", "--structure", "{d}/circle.struct"],
    ],
)
def test_reports_byte_identical_across_processes(argv):
    from conftest import DATA_DIR

    cmd = [sys.executable, "-m", "loopspace"] + [
        a.replace("{d}", DATA_DIR) for a in argv
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout


def test_module_entry_betti(data_path):
    cmd = [
        sys.executable, "-m", "loopspace",
        "betti", "--model", data_path("s2.min"), "--cutoff", "4",
    ]
    out = subprocess.run(cmd, capture_output=True, check=True)
    assert out.stdout == b"0\t1\n1\t1\n2\t1\n3\t1\n4\t1\n"


@pytest.mark.parametrize("coeff", ["1/0", "0/0", "3 / 0"])
def test_zero_denominator_exit_2(capsys, tmp_path, coeff):
    path = tmp_path / "zero.struct"
    path.write_text(f"basis a 1\nbasis b 2\nproduct a b = {coeff} b\n")
    code, out, err = run(capsys, "verify", "bv", "--structure", str(path))
    assert _one_error_line(code, out, err), err
    assert err.startswith("error: line 3: "), err
    assert "zero denominator" in err, err
