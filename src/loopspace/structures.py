"""Finite structure tables: graded products, brackets, and the operators
that tie them together, with exact checkers for the identities they are
supposed to satisfy.

A structure file fixes a finite graded basis and tables of structure
constants.  Omitted entries are zero; a section is present as soon as it
has one line, even a zero line.  Checkers walk every basis tuple, so a
pass is a proof for the quotient the table describes, and a failure comes
with the first offending tuple spelled out.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .checks import (
    BRACKET_LAWS,
    DEVIATION_LAWS,
    PRODUCT_LAWS,
    CheckReport,
    Tabulation,
    add_into,
    apply_map,
    ksign,
)
from .coderivations import CoderivationRep, wedge_words

__all__ = [
    "StructureError",
    "StructureFileError",
    "BasisSpace",
    "StructureTable",
    "parse_structure_file",
    "load_structure_file",
    "CheckReport",
    "check_gerstenhaber",
    "check_bv",
    "derived_bracket",
    "string_brackets",
    "StringBracketReport",
]


class StructureError(ValueError):
    """Structure table unusable for the requested check."""


class StructureFileError(StructureError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TERM_RE = re.compile(
    r"^(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?([A-Za-z_][A-Za-z0-9_]*)$"
)


class BasisSpace:
    """Ordered graded basis; combos are name -> Fraction dicts."""

    def __init__(self, pairs):
        names = []
        degrees = {}
        for name, deg in pairs:
            if not _NAME_RE.match(name):
                raise StructureError(f"bad basis name {name!r}")
            if name in degrees:
                raise StructureError(f"duplicate basis name {name!r}")
            names.append(name)
            degrees[name] = deg
        self.names = tuple(names)
        self._degrees = degrees

    def degree(self, name):
        return self._degrees[name]

    def __contains__(self, name):
        return name in self._degrees

    def __len__(self):
        return len(self.names)

    def render(self, combo):
        if not combo:
            return "0"
        parts = []
        for name in self.names:
            if name not in combo:
                continue
            c = combo[name]
            mag = -c if c < 0 else c
            body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def parse_combo(self, text, where="combination"):
        s = text.strip()
        if s == "0":
            return {}
        out = {}
        sign = 1
        state = "start"
        for piece in re.split(r"([+-])", s):
            tok = piece.strip()
            if not tok:
                continue
            if tok in {"+", "-"}:
                if state == "after_sign":
                    raise StructureError(f"{where}: consecutive signs")
                sign = 1 if tok == "+" else -1
                state = "after_sign"
                continue
            m = _TERM_RE.match(tok)
            if not m:
                raise StructureError(f"{where}: cannot read term {tok!r}")
            coeff_text, name = m.groups()
            if name not in self._degrees:
                raise StructureError(f"{where}: unknown basis name {name!r}")
            coeff = Fraction(re.sub(r"\s", "", coeff_text)) if coeff_text else Fraction(1)
            add_into(out, {name: coeff}, sign)
            sign = 1
            state = "after_term"
        if state == "after_sign":
            raise StructureError(f"{where}: dangling sign")
        if state == "start":
            raise StructureError(f"{where}: empty combination")
        return out


class StructureTable:
    """Loop-space basis plus whatever operator tables the file declared.

    product/bracket: (name, name) -> combo.  delta: name -> combo.
    erase maps loop combos into the marked-point space, mark goes back.
    A table that is None was never declared; an empty dict was declared
    and is identically zero.
    """

    def __init__(self, space, product=None, bracket=None, delta=None,
                 string_space=None, erase=None, mark=None):
        self.space = space
        self.product = product
        self.bracket = bracket
        self.delta = delta
        self.string_space = string_space
        self.erase = erase
        self.mark = mark

    def with_bracket(self, bracket):
        return StructureTable(
            self.space, self.product, bracket, self.delta,
            self.string_space, self.erase, self.mark,
        )

    def mult(self, ca, cb):
        if self.product is None:
            raise StructureError("structure has no product table")
        out = {}
        for x, cx in ca.items():
            for y, cy in cb.items():
                row = self.product.get((x, y))
                if row:
                    add_into(out, row, cx * cy)
        return out

    def delta_of(self, combo):
        return apply_map(self.delta or {}, combo)

    def erase_of(self, combo):
        if self.erase is None:
            raise StructureError("structure has no erasing table")
        return apply_map(self.erase, combo)

    def mark_of(self, combo):
        if self.mark is None:
            raise StructureError("structure has no marking table")
        return apply_map(self.mark, combo)


def parse_structure_file(text):
    basis_pairs = []
    sbasis_pairs = []
    op_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        kind = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if kind in {"basis", "sbasis"}:
            parts = rest.split()
            if len(parts) != 2:
                raise StructureFileError(lineno, f"{kind} needs a name and a degree")
            name, deg_text = parts
            try:
                deg = int(deg_text)
            except ValueError:
                raise StructureFileError(lineno, f"bad degree {deg_text!r}") from None
            (basis_pairs if kind == "basis" else sbasis_pairs).append((lineno, name, deg))
        elif kind in {"product", "bracket", "delta", "E", "M"}:
            if "=" not in rest:
                raise StructureFileError(lineno, f"{kind} line needs '='")
            lhs, rhs = rest.split("=", 1)
            args = lhs.split()
            want = 2 if kind in {"product", "bracket"} else 1
            if len(args) != want:
                raise StructureFileError(
                    lineno, f"{kind} takes {want} basis name(s), got {len(args)}"
                )
            op_lines.append((lineno, kind, tuple(args), rhs.strip()))
        else:
            raise StructureFileError(lineno, f"unrecognized declaration {kind!r}")
    if not basis_pairs:
        raise StructureFileError(0, "no basis lines")
    try:
        space = BasisSpace((n, d) for _, n, d in basis_pairs)
        string_space = BasisSpace((n, d) for _, n, d in sbasis_pairs) if sbasis_pairs else None
    except StructureError as e:
        raise StructureFileError(0, str(e)) from None
    if string_space is not None:
        clash = set(space.names) & set(string_space.names)
        if clash:
            raise StructureFileError(0, f"name in both basis and sbasis: {sorted(clash)[0]}")

    tables = {"product": None, "bracket": None, "delta": None, "E": None, "M": None}
    seen_keys = {}
    for lineno, kind, args, rhs in op_lines:
        if tables[kind] is None:
            tables[kind] = {}
        arg_space = string_space if kind == "M" else space
        val_space = string_space if kind == "E" else space
        if val_space is None or arg_space is None:
            raise StructureFileError(lineno, f"{kind} line needs an sbasis")
        for a in args:
            if a not in arg_space:
                raise StructureFileError(lineno, f"unknown basis name {a!r}")
        key = args if len(args) > 1 else args[0]
        if (kind, key) in seen_keys:
            raise StructureFileError(
                lineno, f"duplicate {kind} entry for {' '.join(args)}"
            )
        seen_keys[(kind, key)] = lineno
        try:
            combo = val_space.parse_combo(rhs, where=f"{kind} {' '.join(args)}")
        except StructureError as e:
            raise StructureFileError(lineno, str(e)) from None
        if combo:
            tables[kind][key] = combo
    return StructureTable(
        space,
        product=tables["product"],
        bracket=tables["bracket"],
        delta=tables["delta"],
        string_space=string_space,
        erase=tables["E"],
        mark=tables["M"],
    )


def load_structure_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure_file(fh.read())


def _pair_degree_witness(space, table, extra, op):
    for (a, b), combo in sorted(table.items()):
        want = space.degree(a) + space.degree(b) + extra
        for name in space.names:
            if name in combo and space.degree(name) != want:
                return (
                    f"{op} {a} {b}: term {name} has degree "
                    f"{space.degree(name)}, expected {want}"
                )
    return None


def _unary_degree_witness(src, tgt, table, extra, op):
    for a, combo in sorted(table.items()):
        want = src.degree(a) + extra
        for name in tgt.names:
            if name in combo and tgt.degree(name) != want:
                return (
                    f"{op} {a}: term {name} has degree "
                    f"{tgt.degree(name)}, expected {want}"
                )
    return None


def check_gerstenhaber(t):
    """Odd-bracket compatibility checks, first failure wins.

    The bracket shifts degree by one; its own grading is the shift of the
    product grading, which is where the extra signs come from.
    """
    if t.product is None or t.bracket is None:
        raise StructureError("gerstenhaber check needs product and bracket tables")
    sp = t.space
    rep = CheckReport()
    if (
        rep.add("product respects degrees",
                _pair_degree_witness(sp, t.product, 0, "product"))
        and rep.add("bracket respects degrees",
                    _pair_degree_witness(sp, t.bracket, 1, "bracket"))
    ):
        Tabulation(sp, product=t.product, bracket=t.bracket).add_laws(
            rep,
            PRODUCT_LAWS + BRACKET_LAWS
            + ("bracket is a graded derivation of the product",),
        )
    return rep


def check_bv(t):
    """Second-order checks on (product, delta): delta squares to zero and
    its deviation from being a derivation is itself a derivation in both
    arguments.  The seven-term expansion states the same thing without
    naming the deviation; the final line records that the two formulations
    agree on this table.
    """
    if t.product is None or t.delta is None:
        raise StructureError("bv check needs product and delta tables")
    sp = t.space
    rep = CheckReport()
    if not (
        rep.add("product respects degrees",
                _pair_degree_witness(sp, t.product, 0, "product"))
        and rep.add("delta respects degrees",
                    _unary_degree_witness(sp, sp, t.delta, 1, "delta"))
    ):
        return rep
    tab = Tabulation(sp, product=t.product, delta=t.delta)
    if not tab.add_laws(rep, PRODUCT_LAWS + ("delta squares to zero",)):
        return rep
    w_first, w_second, w_seven = (tab.witness(label) for label in DEVIATION_LAWS)
    for label, w in zip(DEVIATION_LAWS, (w_first, w_second, w_seven)):
        rep.add(label, w)
    derivation_ok = w_first is None and w_second is None
    seven_ok = w_seven is None
    agree = None if derivation_ok == seven_ok else (
        f"derivation form {'holds' if derivation_ok else 'fails'}, "
        f"seven-term form {'holds' if seven_ok else 'fails'}"
    )
    rep.add("formulations agree", agree)
    return rep


def derived_bracket(t):
    """Table with the bracket replaced by the deviation of delta from
    being a derivation of the product."""
    if t.product is None or t.delta is None:
        raise StructureError("derived bracket needs product and delta tables")
    dev = Tabulation(t.space, product=t.product, delta=t.delta).dev
    return t.with_bracket({k: combo for k, combo in dev.items() if combo})


class StringBracketReport:
    """Outcome bundle: precondition and identity checks, the bracket table
    on the marked-point space, and the higher operations as coderivation
    components keyed by basis index."""

    def __init__(self, checks, bracket, reps, bracket_lines, op_lines):
        self.checks = checks
        self.bracket = bracket
        self.reps = reps
        self.bracket_lines = bracket_lines
        self.op_lines = op_lines

    @property
    def ok(self):
        return self.checks.ok

    def text(self):
        return self.checks.text() + "".join(self.bracket_lines) + "".join(self.op_lines)


def string_brackets(t, max_arity=3):
    """Bracket and higher operations induced on the marked-point space.

    Preconditions come first: every operator respects degrees, erasing a
    mark after marking gives zero, and marking after erasing is the basis
    rotation.  Only then are the operations themselves formed and tested.
    """
    if t.string_space is None or not t.string_space.names:
        raise StructureError("string bracket check needs an sbasis")
    if t.erase is None or t.mark is None:
        raise StructureError("string bracket check needs E and M tables")
    if t.product is None:
        raise StructureError("string bracket check needs a product table")
    if max_arity < 2:
        raise StructureError("max arity must be at least 2")
    sp = t.space
    ss = t.string_space
    rep = CheckReport()

    def degree_witness():
        w = _pair_degree_witness(sp, t.product, 0, "product")
        if w is None and t.delta is not None:
            w = _unary_degree_witness(sp, sp, t.delta, 1, "delta")
        if w is None:
            w = _unary_degree_witness(sp, ss, t.erase, 0, "E")
        if w is None:
            w = _unary_degree_witness(ss, sp, t.mark, 1, "M")
        return w

    if not rep.add("structure constants respect degrees", degree_witness()):
        return StringBracketReport(rep, {}, {}, [], [])

    def em_witness():
        for s in ss.names:
            combo = t.erase_of(t.mark.get(s, {}))
            if combo:
                return f"s={s}: E(M(s)) = {ss.render(combo)}"
        return None

    if not rep.add("mark then erase vanishes", em_witness()):
        return StringBracketReport(rep, {}, {}, [], [])

    def me_witness():
        for a in sp.names:
            lhs = t.mark_of(t.erase.get(a, {}))
            rhs = t.delta_of({a: 1})
            if lhs != rhs:
                return (f"a={a}: M(E(a)) = {sp.render(lhs)}, "
                        f"delta a = {sp.render(rhs)}")
        return None

    if not rep.add("erase then mark equals delta", me_witness()):
        return StringBracketReport(rep, {}, {}, [], [])

    marked = {s: t.mark.get(s, {}) for s in ss.names}
    deg = ss.degree

    bracket = {}
    bracket_lines = []
    for s1 in ss.names:
        for s2 in ss.names:
            combo = add_into(
                {}, t.erase_of(t.mult(marked[s1], marked[s2])), ksign(deg(s1))
            )
            if combo:
                bracket[(s1, s2)] = combo
                bracket_lines.append(f"bracket {s1} {s2} = {ss.render(combo)}\n")

    if not Tabulation(ss, bracket=bracket, shift=0).add_laws(rep, BRACKET_LAWS):
        return StringBracketReport(rep, bracket, {}, bracket_lines, [])

    def op_value(names):
        acc = marked[names[0]]
        for s in names[1:]:
            acc = t.mult(acc, marked[s])
        return t.erase_of(acc)

    def symmetry_witness():
        # inputs carry their marked degree, one more than the file degree;
        # adjacent swaps generate all permutations, so this justifies
        # storing each operation on sorted input tuples only
        for k in range(2, max_arity + 1):
            for tup in itertools.product(ss.names, repeat=k):
                for p in range(k - 1):
                    swapped = tup[:p] + (tup[p + 1], tup[p]) + tup[p + 2:]
                    sign = ksign((deg(tup[p]) + 1) * (deg(tup[p + 1]) + 1))
                    lhs = op_value(swapped)
                    rhs = add_into({}, op_value(tup), sign)
                    if lhs != rhs:
                        args = " ".join(swapped)
                        return (f"op({args}) = {ss.render(lhs)}, "
                                f"expected {ss.render(rhs)}")
        return None

    if not rep.add("inputs are graded symmetric", symmetry_witness()):
        return StringBracketReport(rep, bracket, {}, bracket_lines, [])

    index = {n: i for i, n in enumerate(ss.names)}
    sdegs = tuple(deg(n) + 1 for n in ss.names)
    reps = {}
    op_lines = []

    for k in range(2, max_arity + 1):
        comps = {}
        for tup in wedge_words(len(ss.names), sdegs, k):
            combo = op_value(tuple(ss.names[i] for i in tup))
            if combo:
                comps[tup] = {index[n]: c for n, c in combo.items()}
                names = " ".join(ss.names[i] for i in tup)
                op_lines.append(f"m{k} {names} = {ss.render(combo)}\n")
        reps[k] = CoderivationRep(sdegs, k, comps)
    return StringBracketReport(rep, bracket, reps, bracket_lines, op_lines)
