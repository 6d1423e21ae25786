"""Command line entry points.

Exit codes: 0 when every requested check passes, 1 when the input is
well-formed but a mathematical identity fails (a checker line reports
FAIL, a fuzz trial finds a counterexample, an exactness row breaks), 2
when the input itself is unusable (missing file, a file that is not
UTF-8, parse error, a differential that does not square to zero, unknown
names, a numeric option below its least value).

All reports are plain text, deterministic down to the byte for a given
input, so repeated runs can be compared with cmp.  --out writes through a
temporary file in the target directory and renames, so readers never see
a half-written report.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .checks import CheckReport
from .coderivations import coderivation_relations, jacobi_coderivation_equiv
from .gca import AlgebraError
from .goldman import (
    FatGraphError,
    WordError,
    format_combo,
    goldman_bracket,
    jacobi_fuzz,
    load_fat_graph,
)
from .homology import ChainMapError, ComplexError, betti_table, format_betti_table
from .models import (
    ModelError,
    ModelFileError,
    based_complex,
    equivariant_model,
    format_model_report,
    gysin_report,
    load_model,
    loop_model,
    validate_model,
)
from .structures import (
    StructureError,
    check_bv,
    check_gerstenhaber,
    load_structure_file,
    string_brackets,
)


class UsageError(ValueError):
    """A numeric option is below its least meaningful value."""


# Least value of each numeric option: fewer trials or shorter words than
# this would check nothing and still print pass, and coderivation Jacobi
# needs words of length 3.
_LEAST = {"cutoff": 0, "trials": 1, "max_len": 1, "word_len": 3}

_INPUT_ERRORS = (
    UsageError,
    ModelError,
    ModelFileError,
    StructureError,
    FatGraphError,
    WordError,
    AlgebraError,
    ComplexError,
    ChainMapError,
    OSError,
)


def _check_bounds(args):
    for option, least in _LEAST.items():
        value = getattr(args, option, least)
        if value < least:
            flag = "--" + option.replace("_", "-")
            raise UsageError(f"{flag} must be at least {least}, got {value}")


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".loopspace-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
    return format_betti_table(table), 0


def _cmd_model(args):
    model = loop_model(load_model(args.model))
    if args.command == "string-model":
        model = equivariant_model(model)
    rep = validate_model(model)
    return format_model_report(model, rep), 0 if rep.ok else 1


def _cmd_gysin(args):
    em = equivariant_model(loop_model(load_model(args.model)))
    report = gysin_report(em, args.cutoff)
    return report.text(), 0 if report.ok else 1


def _cmd_goldman(args):
    graph = load_fat_graph(args.surface)
    w = graph.word(args.a)
    v = graph.word(args.b)
    return format_combo(goldman_bracket(w, v)), 0


def _cmd_jacobi_fuzz(args):
    graph = load_fat_graph(args.surface)
    witness = jacobi_fuzz(
        graph, trials=args.trials, max_len=args.max_len, seed=args.seed
    )
    if witness is None:
        return "pass\n", 0
    text = (
        f"FAIL trial {witness['trial']}\n"
        f"u\t{witness['u']}\n"
        f"v\t{witness['v']}\n"
        f"w\t{witness['w']}\n"
        "residual:\n" + format_combo(witness["residual"])
    )
    return text, 1


def _parse_arities(text):
    try:
        arities = sorted({int(x) for x in text.split(",") if x.strip()})
    except ValueError:
        raise StructureError(f"cannot read arity list {text!r}") from None
    if not arities:
        raise StructureError("empty arity list")
    if arities[0] < 2:
        raise StructureError("arities must be at least 2")
    return arities


def _cmd_verify(args):
    table = load_structure_file(args.structure)
    if args.what == "gerstenhaber":
        rep = check_gerstenhaber(table)
        return rep.text(), 0 if rep.ok else 1
    if args.what == "bv":
        rep = check_bv(table)
        return rep.text(), 0 if rep.ok else 1
    arities = _parse_arities(args.arities)
    sb = string_brackets(table, max_arity=arities[-1])
    if args.what == "string-brackets":
        return sb.text(), 0 if sb.ok else 1
    # coderivations: the bracket and operations must exist first
    if not sb.ok:
        return sb.checks.text(), 1
    reps = {k: sb.reps[k] for k in arities}
    ss = table.string_space
    pairs = coderivation_relations(reps, args.word_len, names=ss.names)
    pairs += jacobi_coderivation_equiv(ss, sb.bracket, args.word_len)
    rep = CheckReport()
    for label, witness in pairs:
        rep.add(label, witness)
    return rep.text(), 0 if rep.ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="exact-arithmetic workbench for loop-space chain models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="rank table of a loop-space complex")
    p.add_argument("--model", required=True)
    p.add_argument("--space", choices=["loop", "string", "based"], default="loop")
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser("loop-model", help="list the free-loop model and check it")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_model)

    p = sub.add_parser("string-model", help="list the equivariant model and check it")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_model)

    p = sub.add_parser("gysin", help="exactness table of the connecting sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_gysin)

    p = sub.add_parser("goldman", help="bracket of two loops on a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_goldman)

    p = sub.add_parser("jacobi-fuzz", help="randomized Jacobi check on a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_jacobi_fuzz)

    p = sub.add_parser("verify", help="identity checks on a structure file")
    p.add_argument(
        "what",
        choices=["gerstenhaber", "bv", "string-brackets", "coderivations"],
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--arities", default="2,3")
    p.add_argument("--word-len", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        text, code = args.handler(args)
        _emit(text, args.out)
    except UnicodeDecodeError as e:
        # every subcommand reads exactly one input file
        path = next(
            getattr(args, k) for k in ("model", "surface", "structure") if k in args
        )
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
