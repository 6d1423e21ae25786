"""Command line entry points.

Exit codes: 0 when every requested check passes, 1 when the input is
well-formed but a mathematical identity fails (a checker line reports
FAIL, a fuzz trial finds a counterexample, an exactness row breaks), 2
when the input itself is unusable (missing file, a file that is not
UTF-8, parse error, a differential that does not square to zero, unknown
names, a numeric option below its least value): every such error is a
checks.InputError or an OSError, printed as one line.  A handler checks
everything, then returns its report as text pieces that _emit writes as
they come, and whether it holds; only main turns that into an exit code.

All reports are plain text, deterministic down to the byte for a given
input, so repeated runs can be compared with cmp.  --out writes through a
temporary file in the target directory and renames, so readers never see
a half-written report, and gives it the mode a plain write would.

A command line in the form a row of _COMMANDS spells is read from that
row, without the parsers that cost a cold command a quarter of its time;
argparse reads every other form and prints every help and usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import shutil
import sys
import tempfile

from .checks import InputError
from .coderivations import CoderivationRep, coderivation_relations, jacobi_coderivation_equiv
from .goldman import bracket_combo, format_combo, jacobi_fuzz, load_fat_graph
from .homology import betti_table, format_betti_table
from .models import (
    based_complex,
    equivariant_model,
    format_model_report,
    gysin_report,
    load_model,
    loop_model,
    validate_model,
)
from .structures import (
    check_bv,
    check_gerstenhaber,
    load_structure_file,
    string_brackets,
)


class UsageError(InputError):
    """An option has a value the command cannot use."""


# Least value of each numeric option: fewer trials or shorter words than
# this would check nothing and still print pass, and coderivation Jacobi
# needs words of length 3.
_LEAST = {"cutoff": 0, "trials": 1, "max_len": 1, "word_len": 3}


def _check_bounds(args):
    for option, least in _LEAST.items():
        value = getattr(args, option, least)
        if value < least:
            flag = "--" + option.replace("_", "-")
            raise UsageError(f"{flag} must be at least {least}, got {value}")


@contextlib.contextmanager
def _opened(out_path):
    """stdout, or a temporary file beside out_path that replaces it, with
    the mode a plain write would give, as the block ends; errors name out_path."""
    if out_path is None:
        yield sys.stdout
        return
    try:
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        directory = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".loopspace-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                yield fh
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            if os.path.exists(out_path):
                shutil.copymode(out_path, tmp)
            os.replace(tmp, out_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as e:
        raise OSError(f"{out_path}: {e.strerror or e}") from None


def _emit(pieces, out_path):
    """Write the pieces as they come to stdout, or atomically to out_path."""
    with _opened(out_path) as stream:
        stream.writelines(pieces)


def _space_complex(model, space):
    if space == "loop":
        return loop_model(model).complex
    if space == "based":
        return based_complex(model)
    return equivariant_model(loop_model(model)).complex


def _cmd_betti(args):
    model = load_model(args.model)
    cx = _space_complex(model, args.space)
    table = betti_table(cx, args.cutoff)
    return format_betti_table(table), True


def _cmd_model(args):
    model = loop_model(load_model(args.model))
    if args.command == "string-model":
        model = equivariant_model(model)
    rep = validate_model(model)
    return format_model_report(model, rep), rep.ok


def _cmd_gysin(args):
    report = gysin_report(loop_model(load_model(args.model)), args.cutoff)
    return report.pieces(), report.ok


def _cmd_goldman(args):
    graph = load_fat_graph(args.surface)
    a, b = graph.word(args.a).key, graph.word(args.b).key
    return format_combo(graph, bracket_combo(graph, {a: 1}, {b: 1})), True


def _cmd_jacobi_fuzz(args):
    graph = load_fat_graph(args.surface)
    witness = jacobi_fuzz(
        graph, trials=args.trials, max_len=args.max_len, seed=args.seed
    )
    if witness is None:
        return ["pass\n"], True
    head = (
        f"FAIL trial {witness['trial']}\n"
        f"u\t{witness['u']}\n"
        f"v\t{witness['v']}\n"
        f"w\t{witness['w']}\n"
        "residual:\n"
    )
    return [head, *format_combo(graph, witness["residual"])], False


def _parse_arities(text):
    try:
        arities = sorted({int(x) for x in text.split(",") if x.strip()})
    except ValueError:
        raise UsageError(f"cannot read arity list {text!r}") from None
    if not arities:
        raise UsageError("empty arity list")
    if arities[0] < 2:
        raise UsageError("arities must be at least 2")
    return arities


def _cmd_verify(args):
    table = load_structure_file(args.structure)
    checker = {"gerstenhaber": check_gerstenhaber, "bv": check_bv}.get(args.what)
    if checker:
        rep = checker(table)
        return rep.pieces(), rep.ok
    arities = _parse_arities(args.arities)
    sb = string_brackets(table, max_arity=arities[-1])
    if args.what == "string-brackets":
        return sb.pieces(), sb.ok
    # coderivations: the bracket and operations must exist first
    if not sb.ok:
        return sb.checks.pieces(), False
    # an arity past the last one tabulated has an empty component
    ss = table.string_space
    reps = {k: sb.reps.get(k) or CoderivationRep.from_operation(ss, k, {}) for k in arities}
    rep = coderivation_relations(reps, args.word_len, ss.names)
    rep.lines += jacobi_coderivation_equiv(ss, sb.bracket, args.word_len, rep).lines
    return rep.pieces(), rep.ok


_REQUIRED = {"required": True}
_MODEL, _SURFACE = ("--model", _REQUIRED), ("--surface", _REQUIRED)
_CUTOFF = ("--cutoff", {"type": int, "default": 12})

# name -> (help, handler, options besides --out, each as (flag, add_argument keywords))
_COMMANDS = {
    "betti": ("rank table of a loop-space complex", _cmd_betti, [
        _MODEL, ("--space", {"choices": ["loop", "string", "based"], "default": "loop"}),
        _CUTOFF]),
    "loop-model": ("list the free-loop model and check it", _cmd_model, [_MODEL]),
    "string-model": ("list the equivariant model and check it", _cmd_model, [_MODEL]),
    "gysin": ("exactness table of the connecting sequence", _cmd_gysin, [_MODEL, _CUTOFF]),
    "goldman": ("bracket of two loops on a surface", _cmd_goldman,
                [_SURFACE, ("--a", _REQUIRED), ("--b", _REQUIRED)]),
    "jacobi-fuzz": ("randomized Jacobi check on a surface", _cmd_jacobi_fuzz, [
        _SURFACE, ("--trials", {"type": int, "default": 200}),
        ("--max-len", {"type": int, "default": 6}), ("--seed", {"type": int, "default": 1})]),
    "verify": ("identity checks on a structure file", _cmd_verify, [
        ("what", {"choices": ["gerstenhaber", "bv", "string-brackets", "coderivations"]}),
        ("--structure", _REQUIRED), ("--arities", {"default": "2,3"}),
        ("--word-len", {"type": int, "default": 4})]),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="exact-arithmetic workbench for loop-space chain models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--out")
        p.set_defaults(handler=handler)
    return parser


def _read_args(argv):
    """The namespace _build_parser gives for argv when argv names a row,
    then gives its options each at most once as --flag value and its
    positional anywhere, every value readable; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    rows = dict(options + [("--out", {})])
    positional = next((flag for flag in rows if flag[0] != "-"), None)
    seen = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token if token in rows and token != positional else positional
        value = token if flag == positional else next(tokens, "-")
        if flag is None or flag in seen or value.startswith("-"):
            return None
        seen[flag] = value
    args = argparse.Namespace(command=argv[0], handler=handler)
    for flag, keywords in rows.items():
        if flag in seen:
            try:
                value = keywords.get("type", str)(seen[flag])
            except ValueError:
                return None
            if value not in keywords.get("choices", [value]):
                return None
        elif keywords.get("required") or flag == positional:
            return None
        else:
            value = keywords.get("default")
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or _build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        pieces, holds = args.handler(args)
        _emit(pieces, args.out)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
