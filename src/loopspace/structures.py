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

import re
from fractions import Fraction

from .checks import (
    BRACKET_LAWS,
    DEVIATION_LAWS,
    NAME_RE,
    PRODUCT_LAWS,
    CheckReport,
    InputError,
    LineError,
    Tabulation,
    add_into,
    apply_map,
    content_lines,
    format_terms,
    ksign,
    read_input,
)
from .coderivations import CoderivationRep

__all__ = [
    "StructureError",
    "StructureFileError",
    "BasisSpace",
    "StructureTable",
    "parse_structure_file",
    "load_structure_file",
    "check_gerstenhaber",
    "check_bv",
    "string_brackets",
    "StringBracketReport",
]


class StructureError(InputError):
    """Structure table unusable for the requested check."""


class StructureFileError(StructureError, LineError):
    """Structure file rejected; carries the offending line number."""


_TERM_RE = re.compile(rf"^(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?({NAME_RE.pattern})$")


def _name_problem(name, taken):
    """Why name cannot join a basis whose names are taken; None if it can."""
    if not NAME_RE.fullmatch(name):
        return f"bad basis name {name!r}"
    if name in taken:
        return f"duplicate basis name {name!r}"
    return None


class BasisSpace:
    """Ordered graded basis; combos are name -> Fraction dicts."""

    def __init__(self, pairs):
        names = []
        degrees = {}
        for name, deg in pairs:
            problem = _name_problem(name, degrees)
            if problem:
                raise StructureError(problem)
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
        return format_terms((name, combo[name]) for name in self.names if name in combo)

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
            try:
                coeff = Fraction(re.sub(r"\s", "", coeff_text)) if coeff_text else Fraction(1)
            except ZeroDivisionError:
                raise StructureError(f"{where}: zero denominator in {tok!r}") from None
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
        return apply_map((self.delta or {}).get, combo)



def parse_structure_file(text):
    basis_pairs = []
    sbasis_pairs = []
    declared = {}  # name -> "basis" or "sbasis"
    op_lines = []
    for lineno, line in content_lines(text):
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
            if declared.get(name, kind) != kind:
                problem = f"name in both basis and sbasis: {name}"
            else:
                problem = _name_problem(name, declared)
            if problem:
                raise StructureFileError(lineno, problem)
            declared[name] = kind
            (basis_pairs if kind == "basis" else sbasis_pairs).append((name, deg))
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
        raise StructureError("no basis lines")
    space = BasisSpace(basis_pairs)
    string_space = BasisSpace(sbasis_pairs) if sbasis_pairs else None

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
        except ValueError as e:  # a StructureError, or an int past the digit limit
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
    return parse_structure_file(read_input(path))


def _degree_witness(src, tgt, table, extra, op):
    """The first entry of table with a term of tgt off the degree of its
    arguments in src plus extra, rendered; None when there is none.  A key
    is one basis name or a pair of them."""
    for key, combo in sorted(table.items()):
        args = key if isinstance(key, tuple) else (key,)
        want = sum(map(src.degree, args)) + extra
        for name in tgt.names:
            if name in combo and tgt.degree(name) != want:
                return (
                    f"{op} {' '.join(args)}: term {name} has degree "
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
                _degree_witness(sp, sp, t.product, 0, "product"))
        and rep.add("bracket respects degrees",
                    _degree_witness(sp, sp, t.bracket, 1, "bracket"))
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
                _degree_witness(sp, sp, t.product, 0, "product"))
        and rep.add("delta respects degrees",
                    _degree_witness(sp, sp, t.delta, 1, "delta"))
    ):
        return rep
    tab = Tabulation(sp, product=t.product, delta=t.delta)
    if not tab.add_laws(rep, PRODUCT_LAWS + ("delta squares to zero",)):
        return rep
    first, second, seven = (rep.add(label, tab.witness(label)) for label in DEVIATION_LAWS)
    rep.agree("derivation", first and second, "seven-term", seven)
    return rep


class StringBracketReport:
    """Outcome bundle: precondition and identity checks, the bracket table
    on the marked-point space, and the higher operations as coderivation
    components keyed by basis index.  Each table is filled in once the
    checks before it pass; text() renders the checks, then the bracket and
    the components in the marked-point space."""

    def __init__(self, space):
        self.space = space
        self.checks = CheckReport()
        self.bracket = {}
        self.reps = {}

    @property
    def ok(self):
        return self.checks.ok

    def text(self):
        names, render = self.space.names, self.space.render
        lines = [self.checks.text()]
        lines += (f"bracket {' '.join(pair)} = {render(combo)}\n"
                  for pair, combo in self.bracket.items())
        lines += (f"m{k} {' '.join(names[i] for i in word)} = "
                  f"{render({names[x]: c for x, c in combo.items()})}\n"
                  for k, rep in self.reps.items() for word, combo in rep.comps.items())
        return "".join(lines)


def string_brackets(t, max_arity=3):
    """Bracket and higher operations induced on the marked-point space.

    Preconditions come first: every operator respects degrees, erasing a
    mark after marking gives zero, and marking after erasing is the basis
    rotation.  Only then are the operations themselves formed and tested.

    The arity-k operation takes s1..sk to E(M(s1)...M(sk)).  One table per
    arity, built from the nonzero products of the arity before, keeps the
    index tuples with a nonzero value; the bracket, the symmetry walk and
    the coderivation components all read it.
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
    out = StringBracketReport(ss)
    rep = out.checks

    tables = ((sp, sp, t.product, 0, "product"), (sp, sp, t.delta or {}, 1, "delta"),
              (sp, ss, t.erase, 0, "E"), (ss, sp, t.mark, 1, "M"))
    witness = next(filter(None, (_degree_witness(*row) for row in tables)), None)
    if not rep.add("structure constants respect degrees", witness):
        return out

    def em_witness():
        for s in ss.names:
            combo = apply_map(t.erase.get, t.mark.get(s, {}))
            if combo:
                return f"s={s}: E(M(s)) = {ss.render(combo)}"
        return None

    if not rep.add("mark then erase vanishes", em_witness()):
        return out

    def me_witness():
        for a in sp.names:
            lhs = apply_map(t.mark.get, t.erase.get(a, {}))
            rhs = t.delta_of({a: 1})
            if lhs != rhs:
                return (f"a={a}: M(E(a)) = {sp.render(lhs)}, "
                        f"delta a = {sp.render(rhs)}")
        return None

    if not rep.add("erase then mark equals delta", me_witness()):
        return out

    # ops[k]: index tuples with a nonzero value E(M(s1)...M(sk)).  mult is
    # bilinear and runs from the left, so a prefix whose product is 0 gives
    # 0 for every extension, and each arity extends only nonzero products.
    names, deg = ss.names, ss.degree
    marked = [(i, t.mark[s]) for i, s in enumerate(names) if t.mark.get(s)]
    prods = {(i,): m for i, m in marked}
    ops = {}
    for k in range(2, max_arity + 1):
        prods = {tup + (i,): p for tup, acc in prods.items() for i, m in marked
                 if (p := t.mult(acc, m))}
        ops[k] = {tup: v for tup, acc in prods.items() if (v := apply_map(t.erase.get, acc))}

    out.bracket = {(names[i], names[j]): add_into({}, v, ksign(deg(names[i])))
                   for (i, j), v in ops[2].items()}
    if not Tabulation(ss, bracket=out.bracket, shift=0).add_laws(rep, BRACKET_LAWS):
        return out

    def swap(tup, p):
        return tup[:p] + (tup[p + 1], tup[p]) + tup[p + 2:]

    def symmetry_witness():
        # inputs carry their marked degree, one more than the file degree,
        # and adjacent swaps generate all permutations.  Arity 2 is the
        # antisymmetry just passed: with [a,b] = (-1)^|a| op(a,b) it reads
        # op(b,a) = (-1)^((|a|+1)(|b|+1)) op(a,b).  A swap with both sides 0
        # passes, so only the pairs with a side in ops[k] are walked, in the
        # order of a walk over every tuple.
        for k in range(3, max_arity + 1):
            op = ops[k]
            for tup, p in sorted({(u, p) for w in op for p in range(k - 1)
                                  for u in (w, swap(w, p))}):
                swapped = swap(tup, p)
                sign = ksign((deg(names[tup[p]]) + 1) * (deg(names[tup[p + 1]]) + 1))
                lhs = op.get(swapped, {})
                rhs = add_into({}, op.get(tup, {}), sign)
                if lhs != rhs:
                    args = " ".join(names[i] for i in swapped)
                    return (f"op({args}) = {ss.render(lhs)}, "
                            f"expected {ss.render(rhs)}")
        return None

    if not rep.add("inputs are graded symmetric", symmetry_witness()):
        return out

    out.reps = {k: CoderivationRep.from_operation(ss, k, op) for k, op in ops.items()}
    return out
