"""Command line behavior: exit codes, report layout, determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types

import pytest
from conftest import DATA_DIR, reduced_word
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_parser

from loopspace.cli import _COMMANDS, _read_args, main
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
    assert out == "".join(format_betti_table(betti_table(cx, 9)))
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

    def perturbed(graph, a, b, acc, scale):
        # keys order like token sequences: the least key is the least class
        out = true_bracket(graph, a, b, {}, 1)
        if out:
            out[min(out)] += 1
        return add_into(acc, out, scale)

    monkeypatch.setattr(goldman, "_bracket", perturbed)
    graph = goldman.load_fat_graph(data_path("torus.fat"))
    witness = goldman.jacobi_fuzz(graph, trials=40, max_len=5)
    assert witness is not None and witness["residual"]
    u, v, w = witness["u"], witness["v"], witness["w"]
    a, b, c = u.key, v.key, w.key
    residual = goldman.bracket_combo(graph, {a: 1}, perturbed(graph, b, c, {}, 1))
    add_into(residual, goldman.bracket_combo(graph, perturbed(graph, a, b, {}, 1), {c: 1}), -1)
    add_into(residual, goldman.bracket_combo(graph, {b: 1}, perturbed(graph, a, c, {}, 1)), -1)
    assert residual == witness["residual"]

    code, out, _ = run(
        capsys,
        "jacobi-fuzz", "--surface", data_path("torus.fat"),
        "--trials", "40", "--max-len", "5",
    )
    assert code == 1
    assert out == (
        f"FAIL trial {witness['trial']}\nu\t{u}\nv\t{v}\nw\t{w}\n"
        "residual:\n" + "".join(goldman.format_combo(graph, residual))
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


def _long_goldman_argv(data_path):
    """goldman on a genus-2 pair of 60 and 120 letters, which prints about
    2 000 classes, over a megabyte of report."""
    rng = random.Random(1)
    a, b = reduced_word(rng, 60), reduced_word(rng, 120)
    return ["goldman", "--surface", data_path("genus2.fat"), "--a", a, "--b", b]


class _CountingSink(io.TextIOBase):
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_goldman_holds_less_than_its_report(data_path, monkeypatch):
    # the report is written as it is formatted, from the bracket's term
    # dict, so the peak of the whole command stays below the report's size
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(_long_goldman_argv(data_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.chars > 10**6
    assert peak < sink.chars, (peak, sink.chars)


def test_out_streams_and_a_failed_write_leaves_no_trace(capsys, data_path, tmp_path,
                                                       monkeypatch):
    # the long report through --out is the one on stdout, byte for byte; a
    # write that fails after the first piece exits 2 naming the target,
    # which keeps its old text, and removes the temporary file
    argv = _long_goldman_argv(data_path)
    code, want, _ = run(capsys, *argv)
    target = tmp_path / "report.tsv"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == want.encode()

    target.write_text("old\n")
    writes = []

    class FullDisk(io.TextIOWrapper):
        def write(self, text):
            writes.append(sorted(p.name[:11] for p in tmp_path.iterdir()))
            if len(writes) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

    monkeypatch.setattr(os, "fdopen", lambda fd, mode, encoding: FullDisk(
        open(fd, "wb"), encoding=encoding))
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert _one_error_line(code, out, err), err
    assert err == f"error: {target}: No space left on device\n"
    assert writes == [[".loopspace-", "report.tsv"]] * 2
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.tsv"]


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
    from conftest import DATA_DIR, reduced_word

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
    from conftest import DATA_DIR, reduced_word

    cmd = [sys.executable, "-m", "loopspace"] + [
        a.replace("{d}", DATA_DIR) for a in argv
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout


def test_module_entry_betti(data_path):
    # the second form is argparse's to read, from sys.argv
    model = data_path("s2.min")
    for argv in (["--model", model, "--cutoff", "4"], [f"--model={model}", "--cut", "4"]):
        cmd = [sys.executable, "-m", "loopspace", "betti", *argv]
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


S2 = os.path.join(DATA_DIR, "s2.min")

# Help texts and usage errors, each as argparse renders it, and two forms
# that argparse reads though no row spells them so.
PINNED_ARGV = [
    ["--help"],
    *([name, "--help"] for name in _COMMANDS),
    [],
    ["nosuch"],
    ["betti"],
    ["betti", "--model", S2, "--space", "nosuch"],
    ["verify", "nosuch", "--structure", os.path.join(DATA_DIR, "circle.struct")],
    ["betti", "--model", S2, "--cutoff", "x"],
    ["betti", "--model", S2, "--nosuch", "1"],
    ["betti", "--model"],
    ["betti", f"--model={S2}", "--cutoff", "4"],
    ["betti", "--model", S2, "--cut", "3"],
]


def _argv_id(argv):
    return " ".join(argv).replace(DATA_DIR + os.sep, "") or "no arguments"


def _outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reference_main(argv):
    args = reference_parser().parse_args(argv)
    pieces, holds = args.handler(args)
    sys.stdout.write("".join(pieces))
    return 0 if holds else 1


@pytest.mark.parametrize("argv", PINNED_ARGV, ids=_argv_id)
def test_help_and_usage_errors_are_argparse_s(argv, capsys, monkeypatch):
    # argparse wraps help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    want = _outcome(capsys, _reference_main, argv)
    assert want[1] or want[2]
    assert _outcome(capsys, main, argv) == want


# Values a perturbed command line may carry: empty, negative, padded and
# underscored numerals, a word no int reads and one outside every choice.
ODD_VALUES = ["", "-3", " 7", "1_0", "x", "nosuch"]


@st.composite
def perturbed_command_lines(draw):
    """A command line of one _COMMANDS row in the form the reader reads:
    each required option and some of the others as --flag value pairs in
    any order, the positional anywhere, every value valid.  Then at most
    one perturbation, named with the line."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    pairs, positional = [], []
    for flag, keywords in _COMMANDS[name][2] + [("--out", {})]:
        if "choices" in keywords:
            value = draw(st.sampled_from(keywords["choices"]))
        elif "type" in keywords:
            value = str(draw(st.integers(0, 30)))
        else:
            value = draw(st.sampled_from(["s2.min", "a b", "2,3,4", "x=y", "betti", "model"]))
        if flag[0] != "-":
            positional = [value]
        elif keywords.get("required") or draw(st.booleans()):
            pairs.append([flag, value])
    pairs = draw(st.permutations(pairs))
    how = draw(st.sampled_from([None, "drop", "repeat", "abbreviate", "equals", "insert",
                                "value"]))
    i = draw(st.integers(0, len(pairs) - 1))
    flag, value = pairs[i]
    if how == "drop" and positional and draw(st.booleans()):
        positional = []
    elif how == "drop":
        # every row has a required option
        i = draw(st.sampled_from([k for k, (f, _) in enumerate(pairs)
                                  if dict(_COMMANDS[name][2]).get(f, {}).get("required")]))
        del pairs[i]
    elif how == "repeat":
        pairs.insert(draw(st.integers(0, len(pairs))), [flag, draw(st.sampled_from(["1", value]))])
    elif how == "abbreviate":
        if len(flag) == 3:
            how = "unknown"
            pairs[i] = ["--" + flag[2] + "x", value]
        else:
            pairs[i] = [flag[:draw(st.integers(3, len(flag) - 1))], value]
    elif how == "equals":
        pairs[i] = [f"{flag}={value}"]
    elif how == "value":
        if positional and draw(st.booleans()):
            positional = [draw(st.sampled_from(ODD_VALUES))]
        else:
            pairs[i] = [flag, draw(st.sampled_from(ODD_VALUES))]
    tokens = [t for pair in pairs for t in pair]
    at = draw(st.integers(0, len(pairs))) * 2
    tokens[at:at] = positional
    if how == "insert":
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(["--", "-h", "--help", "--nosuch"])))
    return how, [name] + tokens


@settings(max_examples=400, deadline=None)
@given(perturbed_command_lines())
@example(("drop", ["verify", "--structure", "circle.struct"]))
@example(("repeat", ["betti", "--model", "s2.min", "--cutoff", "3", "--cutoff", "4"]))
@example(("value", ["gysin", "--cutoff", "-3", "--model", "s2.min"]))
def test_the_reader_reads_as_argparse_or_not_at_all(case):
    how, argv = case
    args = _read_args(argv)
    if how in (None, "value"):
        if how is None:
            assert args is not None, argv
        if args is not None:
            # argparse exits on any argv it refuses, so it reads this one
            assert vars(args) == vars(reference_parser().parse_args(argv)), argv
    else:
        assert args is None, argv


def _bench_commands(work, monkeypatch):
    """The Command lists of bench/run.py's build_workloads, with inputs
    written under work.  run.py is run from its source and imports gen and
    tracing from bench/, so no bytecode is written there."""
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    path = os.path.join(bench, "run.py")
    run_py = types.ModuleType("bench_run")
    run_py.__file__ = path
    with monkeypatch.context() as m:
        m.syspath_prepend(bench)
        m.setattr(sys, "dont_write_bytecode", True)
        for name in ("gen", "tracing"):
            m.delitem(sys.modules, name, raising=False)
        with open(path, encoding="utf-8") as fh:
            exec(compile(fh.read(), path, "exec"), run_py.__dict__)
        return run_py.build_workloads(1, work)


def test_the_reader_reads_every_benchmark_command(tmp_path, monkeypatch):
    commands = [c for cs in _bench_commands(tmp_path, monkeypatch).values() for c in cs]
    assert len(commands) == 11
    for c in commands:
        args = _read_args(c.argv)
        assert args is not None, c.argv
        assert vars(args) == vars(reference_parser().parse_args(c.argv)), c.argv


def test_well_formed_commands_build_no_parser(capsys, monkeypatch, data_path):
    torus, circle = data_path("torus.fat"), data_path("circle.struct")
    commands = [
        ["betti", "--space", "string", "--model", data_path("s2xs3.min"), "--cutoff", "6"],
        ["gysin", "--model", data_path("s2.min"), "--cutoff", "6"],
        ["goldman", "--surface", torus, "--a", "a", "--b", "b"],
        ["jacobi-fuzz", "--surface", torus, "--trials", "5", "--max-len", "4"],
        ["verify", "bv", "--structure", circle],
        ["verify", "--structure", circle, "gerstenhaber"],
        ["verify", "coderivations", "--structure", data_path("torus_bracket.struct"),
         "--word-len", "3"],
    ]
    want = [run(capsys, *argv)[:2] for argv in commands]

    def refuse(self, *args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [run(capsys, *argv)[:2] for argv in commands] == want
