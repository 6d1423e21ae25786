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

import functools
import itertools
import re
from fractions import Fraction

from .checks import CheckReport, add_into
from .coderivations import CoderivationRep

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


def _ksign(e):
    return -1 if e % 2 else 1


def _apply(table, combo):
    """The linear map with table name -> combo, on a combination."""
    out = {}
    for x, cx in combo.items():
        row = table.get(x)
        if row:
            add_into(out, row, cx)
    return out


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
        return _apply(self.delta or {}, combo)

    def erase_of(self, combo):
        if self.erase is None:
            raise StructureError("structure has no erasing table")
        return _apply(self.erase, combo)

    def mark_of(self, combo):
        if self.mark is None:
            raise StructureError("structure has no marking table")
        return _apply(self.mark, combo)


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


def _left(table, a, combo, acc, sign=1):
    """acc += sign * (a . combo) for a pair table, a basis name a and a
    sign of +-1."""
    for y, v in combo.items():
        row = table[a, y]
        if row:
            add_into(acc, row, v if sign == 1 else -v)
    return acc


def _right(table, combo, c, acc, sign=1):
    """acc += sign * (combo . c) for a pair table, a basis name c and a
    sign of +-1."""
    for x, v in combo.items():
        row = table[x, c]
        if row:
            add_into(acc, row, v if sign == 1 else -v)
    return acc


class _Tabulation:
    """The structure constants of one check, tabulated once on basis names.

    A pair table holds every basis pair, zero pairs included, so it has n^2
    entries; the tables derived from delta are built on first use.  The
    tabulation belongs to one check and is dropped when the check returns.
    shift is the parity the bracket adds to degrees: 1 for the odd
    Gerstenhaber bracket, 0 for the even bracket on the marked-point space.
    """

    def __init__(self, space, product=None, bracket=None, delta=None, shift=1):
        self.space = space
        self.shift = shift
        names = space.names
        self.deg = {a: space.degree(a) for a in names}

        def pairs(table):
            if table is None:
                return None
            return {(a, b): table.get((a, b), {}) for a in names for b in names}

        self.prod = pairs(product)
        self.br = pairs(bracket)
        self.delta = None if delta is None else {a: delta.get(a, {}) for a in names}

    @functools.cached_property
    def dprod(self):
        """delta(a*b)."""
        delta = self.delta
        return {k: _apply(delta, ab) for k, ab in self.prod.items()}

    @functools.cached_property
    def dleft(self):
        """delta(a)*b."""
        return {(a, b): _right(self.prod, self.delta[a], b, {}) for a, b in self.prod}

    @functools.cached_property
    def dright(self):
        """a*delta(b)."""
        return {(a, b): _left(self.prod, a, self.delta[b], {}) for a, b in self.prod}

    @functools.cached_property
    def dev(self):
        """Deviation of delta from being a derivation of the product."""
        out = {}
        for a, b in self.prod:
            s = _ksign(self.deg[a])
            acc = add_into({}, self.dprod[a, b], s)
            add_into(acc, self.dleft[a, b], -s)
            out[a, b] = add_into(acc, self.dright[a, b], -1)
        return out

    # Each identity below returns its two sides on one basis tuple.

    def commutative(self, a, b):
        prod = self.prod
        return prod[b, a], add_into({}, prod[a, b], _ksign(self.deg[a] * self.deg[b]))

    def associative(self, a, b, c):
        prod = self.prod
        return _right(prod, prod[a, b], c, {}), _left(prod, a, prod[b, c], {})

    def delta_square(self, a):
        return _apply(self.delta, self.delta[a]), {}

    def antisymmetric(self, a, b):
        s, br = self.shift, self.br
        sign = -_ksign((self.deg[a] + s) * (self.deg[b] + s))
        return br[b, a], add_into({}, br[a, b], sign)

    def jacobi(self, a, b, c):
        s, br = self.shift, self.br
        rhs = _right(br, br[a, b], c, {})
        _left(br, b, br[a, c], rhs, _ksign((self.deg[a] + s) * (self.deg[b] + s)))
        return _left(br, a, br[b, c], {}), rhs

    def leibniz(self, a, b, c):
        prod, br = self.prod, self.br
        rhs = _right(prod, br[a, b], c, {})
        _left(prod, b, br[a, c], rhs, _ksign(self.deg[b] * (self.deg[a] + self.shift)))
        return _left(br, a, prod[b, c], {}), rhs

    def first_arg(self, a, b, c):
        prod, dev = self.prod, self.dev
        rhs = _left(prod, a, dev[b, c], {})
        _right(prod, dev[a, c], b, rhs, _ksign(self.deg[b] * (self.deg[c] + 1)))
        return _right(dev, prod[a, b], c, {}), rhs

    def second_arg(self, a, b, c):
        prod, dev = self.prod, self.dev
        rhs = _right(prod, dev[a, b], c, {})
        _left(prod, b, dev[a, c], rhs, _ksign(self.deg[b] * (self.deg[a] + 1)))
        return _left(dev, a, prod[b, c], {}), rhs

    def seven_term(self, a, b, c):
        """delta(a*b*c) against the six terms of a second-order operator."""
        prod, dprod, dleft = self.prod, self.dprod, self.dleft
        da, db = self.deg[a], self.deg[b]
        sa = _ksign(da)
        ab = prod[a, b]
        rhs = _right(prod, dprod[a, b], c, {})
        _left(prod, a, dprod[b, c], rhs, sa)
        _left(prod, b, dprod[a, c], rhs, _ksign((da + 1) * db))
        _left(dleft, a, prod[b, c], rhs, -1)
        _left(prod, a, dleft[b, c], rhs, -sa)
        _right(self.dright, ab, c, rhs, -_ksign(da + db))
        return _right(dprod, ab, c, {}), rhs

    def witness(self, label):
        """First basis tuple on which the identity's two sides differ,
        rendered; None when they agree on every tuple."""
        sides, arity, lhs_text, rhs_text = _IDENTITIES[label]
        render = self.space.render
        for tup in itertools.product(self.space.names, repeat=arity):
            lhs, rhs = sides(self, *tup)
            if lhs != rhs:
                where = ", ".join(f"{v}={n}" for v, n in zip("abc", tup))
                tail = f", {rhs_text} {render(rhs)}" if rhs_text else ""
                return f"{where}: {lhs_text} = {render(lhs)}{tail}"
        return None

    def add_laws(self, rep, labels):
        """One report line per identity, in order; False at the first
        failure, which ends the run."""
        return all(rep.add(label, self.witness(label)) for label in labels)


# label -> (sides, arity, left side as printed, right side as printed)
_IDENTITIES = {
    "product is graded commutative": (_Tabulation.commutative, 2, "b*a", "expected"),
    "product is associative": (_Tabulation.associative, 3, "(a*b)*c", "a*(b*c) ="),
    "delta squares to zero": (_Tabulation.delta_square, 1, "delta(delta(a))", None),
    "bracket is graded antisymmetric": (_Tabulation.antisymmetric, 2, "[b,a]", "expected"),
    "bracket satisfies the graded Jacobi identity":
        (_Tabulation.jacobi, 3, "[a,[b,c]]", "expected"),
    "bracket is a graded derivation of the product":
        (_Tabulation.leibniz, 3, "[a,b*c]", "expected"),
    "deviation is a derivation in its first argument":
        (_Tabulation.first_arg, 3, "dev(a*b, c)", "expected"),
    "deviation is a derivation in its second argument":
        (_Tabulation.second_arg, 3, "dev(a, b*c)", "expected"),
    "seven-term identity holds": (_Tabulation.seven_term, 3, "delta(a*b*c)", "expected"),
}
_PRODUCT_LAWS = ("product is graded commutative", "product is associative")
_BRACKET_LAWS = (
    "bracket is graded antisymmetric",
    "bracket satisfies the graded Jacobi identity",
)
_DEVIATION_LAWS = (
    "deviation is a derivation in its first argument",
    "deviation is a derivation in its second argument",
    "seven-term identity holds",
)


def check_gerstenhaber(t):
    """Odd-bracket compatibility checks, first failure wins.

    The bracket shifts degree by one; its own grading is the shift of the
    product grading, which is where the extra signs come from.
    """
    if t.product is None or t.bracket is None:
        raise StructureError("gerstenhaber check needs product and bracket tables")
    sp = t.space
    rep = CheckReport("gerstenhaber")
    if (
        rep.add("product respects degrees",
                _pair_degree_witness(sp, t.product, 0, "product"))
        and rep.add("bracket respects degrees",
                    _pair_degree_witness(sp, t.bracket, 1, "bracket"))
    ):
        _Tabulation(sp, product=t.product, bracket=t.bracket).add_laws(
            rep,
            _PRODUCT_LAWS + _BRACKET_LAWS
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
    rep = CheckReport("bv")
    if not (
        rep.add("product respects degrees",
                _pair_degree_witness(sp, t.product, 0, "product"))
        and rep.add("delta respects degrees",
                    _unary_degree_witness(sp, sp, t.delta, 1, "delta"))
    ):
        return rep
    tab = _Tabulation(sp, product=t.product, delta=t.delta)
    if not tab.add_laws(rep, _PRODUCT_LAWS + ("delta squares to zero",)):
        return rep
    w_first, w_second, w_seven = (tab.witness(label) for label in _DEVIATION_LAWS)
    for label, w in zip(_DEVIATION_LAWS, (w_first, w_second, w_seven)):
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
    dev = _Tabulation(t.space, product=t.product, delta=t.delta).dev
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
    rep = CheckReport("string brackets")

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
                {}, t.erase_of(t.mult(marked[s1], marked[s2])), _ksign(deg(s1))
            )
            if combo:
                bracket[(s1, s2)] = combo
                bracket_lines.append(f"bracket {s1} {s2} = {ss.render(combo)}\n")

    if not _Tabulation(ss, bracket=bracket, shift=0).add_laws(rep, _BRACKET_LAWS):
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
                    sign = _ksign((deg(tup[p]) + 1) * (deg(tup[p + 1]) + 1))
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
        for tup in itertools.combinations_with_replacement(range(len(ss.names)), k):
            if any(
                tup[i] == tup[i + 1] and sdegs[tup[i]] % 2
                for i in range(k - 1)
            ):
                continue
            combo = op_value(tuple(ss.names[i] for i in tup))
            if combo:
                comps[tup] = {index[n]: c for n, c in combo.items()}
                names = " ".join(ss.names[i] for i in tup)
                op_lines.append(f"m{k} {names} = {ss.render(combo)}\n")
        reps[k] = CoderivationRep(sdegs, k, comps)
    return StringBracketReport(rep, bracket, reps, bracket_lines, op_lines)
