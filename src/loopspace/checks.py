"""What every module shares: the input contract, sparse combinations
accumulated in place and how they print, the ordered report of check
outcomes, and the identities themselves, each stated once.

An input the program cannot use raises an InputError, or one of its
subclasses; the command line prints its message as one line and exits 2.
LineError names the line of a file it rejects, read_input reads every
input file, and content_lines yields the lines of all three file formats
with their ``#`` comments cut off.

A combination is a dict key -> coefficient that never stores a zero, so
two combinations are equal exactly when they are equal as dicts;
format_terms prints every rational combination.
add_into and apply_map add a scaled combination, or a linear map's image
of one, into an accumulator the caller passes, in one pass and with no
intermediate dict, so a composite such as g(f(x)) sums straight into its
result.

An identity of arity k is a method of Tabulation that takes the first k-1
names of a basis tuple and returns both sides for every last name, as
{last name: nonzero combination}; IDENTITIES declares each one with its
arity, its degree and its printed sides, and Tabulation.witness walks
every prefix.  A space is anything with ordered ``names``,
``degree(name)`` and ``render(combo)``.

Inside a check the arithmetic is on ints: integral multiplies all the
tables of one check by the least common multiple D of their
denominators.  Each side of an identity is a sum of products of the same
number k of structure constants, the degree IDENTITIES states, so both
sides scale by D^k: the verdict and the first failing tuple stay, and a
witness divided by D^k is exact.  Fractions appear only where tables are
read and where witnesses are rendered.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

__all__ = [
    "InputError",
    "LineError",
    "read_input",
    "content_lines",
    "NAME_RE",
    "add_into",
    "format_terms",
    "integral",
    "ksign",
    "apply_map",
    "CheckReport",
    "Tabulation",
    "IDENTITIES",
    "PRODUCT_LAWS",
    "BRACKET_LAWS",
    "DEVIATION_LAWS",
]


class InputError(ValueError):
    """An input the program cannot use."""


class LineError(InputError):
    """An input file rejected at one of its lines."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


def read_input(path):
    """The text of the UTF-8 file at path; a file that is not UTF-8 is an
    InputError that names path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: {e}") from None


def content_lines(text):
    """(line number from 1, line) for each line of text that holds
    anything once a ``#`` and what follows it are cut off, stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# What a generator, basis element or surface generator may be named.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def add_into(acc, combo, scale=1):
    """acc += scale * combo, in place and in one pass over combo, dropping
    every coefficient that is or becomes zero; returns acc.  acc must not
    be combo, whose items the pass reads while it writes acc."""
    if scale:
        get = acc.get
        for key, v in combo.items():
            v = get(key, 0) + scale * v
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return acc


def format_terms(terms):
    """The printed form of a rational combination given as its (name,
    coefficient) terms in order, such as ``-a + 2*b - 1/2*c``; ``0`` when
    there are none.  A name of None stands for a constant."""
    pieces = []
    for name, c in terms:
        a = abs(c)
        body = str(a) if name is None else name if a == 1 else f"{a}*{name}"
        pieces.append((" - " if c < 0 else " + ") + body)
    text = "".join(pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def integral(tables):
    """The tables, each a dict key -> combination or None, with every
    coefficient multiplied by the least common multiple D of all their
    denominators; returns (the tables with int coefficients, D)."""
    scale = math.lcm(*{c.denominator for table in tables if table
                       for combo in table.values() for c in combo.values()})
    return [None if table is None else {
        key: {x: c.numerator * (scale // c.denominator) for x, c in combo.items()}
        for key, combo in table.items()
    } for table in tables], scale


def ksign(e):
    """(-1)^e."""
    return -1 if e % 2 else 1


def apply_map(f, combo, acc=None, scale=1):
    """acc += scale * F(combo), in place, where F is the linear map taking
    each key x to the combination f(x); returns acc, a new dict when acc
    is None.  f(x) may be empty or None for zero; f is a table's get, a
    list's __getitem__ or an image function.  acc must not be combo."""
    if acc is None:
        acc = {}
    for x, cx in combo.items():
        row = f(x)
        if row:
            add_into(acc, row, scale * cx)
    return acc


class CheckReport:
    """Ordered check outcomes; pieces() is the CLI rendering, one line per
    check."""

    def __init__(self):
        self.lines = []

    def add(self, label, witness=None):
        self.lines.append((label, witness))
        return witness is None

    @property
    def ok(self):
        return all(w is None for _, w in self.lines)

    def agree(self, first, first_holds, second, second_holds):
        """The "formulations agree" line for two forms of one condition,
        named first and second: a pass when both hold or both fail."""
        verdict = {True: "holds", False: "fails"}
        return self.add("formulations agree", None if first_holds == second_holds else (
            f"{first} form {verdict[first_holds]}, "
            f"{second} form {verdict[second_holds]}"
        ))

    def failures(self):
        return [(l, w) for l, w in self.lines if w is not None]

    def pieces(self):
        return (f"check {label}: pass\n" if witness is None else f"check {label}: FAIL {witness}\n"
                for label, witness in self.lines)


def _mix(acc, rows, combo, sign=1):
    """acc[c] += sign * (combo . c) for every c, where rows[x] = {c: x.c};
    a combination that cancels stays behind empty."""
    for x, v in combo.items():
        for c, xc in rows[x].items():
            add_into(acc.setdefault(c, {}), xc, v if sign == 1 else -v)
    return acc


def _compose(acc, f, rows, sign=1):
    """acc[c] += sign * f(rows[c]) for every c of rows; f as in apply_map."""
    for c, combo in rows.items():
        apply_map(f, combo, acc.setdefault(c, {}), sign)
    return acc


def _nonzero(rows):
    return {c: combo for c, combo in rows.items() if combo}


class Tabulation:
    """The structure constants of one check, tabulated once on basis names.

    Pair tables are rows, rows[x] = {y: x.y} with the zero pairs left
    out, so a law costs what its nonzero constants cost, not n^3: prod,
    br, and those derived from delta (dprod, dleft, dright, dev), built on
    first use.  delta maps a name to its nonzero image.  The tabulation
    belongs to one check and is dropped when the check returns.
    shift is the parity the bracket adds to degrees: 1 for the odd
    Gerstenhaber bracket, 0 for the even bracket on the marked-point space.

    prod, br and delta are the tables given times one scale, the least
    common multiple of all their denominators, so every table here has int
    coefficients; witness divides by scale^degree to render.
    """

    def __init__(self, space, product=None, bracket=None, delta=None, shift=1):
        self.space = space
        self.shift = shift
        names = space.names
        self.deg = {a: space.degree(a) for a in names}

        def rows(table):
            out = {a: {} for a in names}
            for (a, b), combo in table.items():
                if combo:
                    out[a][b] = combo
            return out

        (product, bracket, delta), self.scale = integral([product, bracket, delta])
        self.prod = None if product is None else rows(product)
        self.br = None if bracket is None else rows(bracket)
        self.delta = None if delta is None else {a: c for a, c in delta.items() if c}

    @functools.cached_property
    def dprod(self):
        """delta(a*b)."""
        return {a: _nonzero(_compose({}, self.delta.get, row)) for a, row in self.prod.items()}

    @functools.cached_property
    def dleft(self):
        """delta(a)*b."""
        return {a: _nonzero(_mix({}, self.prod, self.delta.get(a, {}))) for a in self.prod}

    @functools.cached_property
    def dright(self):
        """a*delta(b)."""
        return {a: _nonzero(_compose({}, row.get, self.delta)) for a, row in self.prod.items()}

    @functools.cached_property
    def dev(self):
        """Deviation of delta from being a derivation of the product."""
        out = {}
        for a in self.prod:
            s = ksign(self.deg[a])
            # the rows s*dprod - s*dleft - dright, as a combination of rows
            terms = (self.dprod[a], self.dleft[a], self.dright[a])
            out[a] = _nonzero(_mix({}, terms, {0: s, 1: -s, 2: -1}))
        return out

    # Each identity below takes all but the last name of a basis tuple and
    # returns its two sides as {last name: nonzero combination}.  Five are
    # one of two rules on tables, each with the parity it adds to degrees.

    def _swap(self, table, s, eps, a):
        """table(b,a) against eps * (-1)^((|a|+s)(|b|+s)) table(a,b)."""
        return ({b: row[a] for b, row in table.items() if a in row},
                {b: add_into({}, ab, eps * ksign((self.deg[a] + s) * (self.deg[b] + s)))
                 for b, ab in table[a].items()})

    def _derivation(self, op, s, mult, t, a, b):
        """op(a, b*c) against op(a,b)*c + (-1)^((|a|+s)(|b|+t)) b*op(a,c), * being mult."""
        rhs = _mix({}, mult, op[a].get(b, {}))
        _compose(rhs, mult[b].get, op[a], ksign((self.deg[a] + s) * (self.deg[b] + t)))
        return _nonzero(_compose({}, op[a].get, mult[b])), _nonzero(rhs)

    def commutative(self, a):
        return self._swap(self.prod, 0, 1, a)

    def associative(self, a, b):
        prod = self.prod
        return (_nonzero(_mix({}, prod, prod[a].get(b, {}))),
                _nonzero(_compose({}, prod[a].get, prod[b])))

    def delta_square(self):
        return _nonzero(_compose({}, self.delta.get, self.delta)), {}

    def antisymmetric(self, a):
        return self._swap(self.br, self.shift, -1, a)

    def jacobi(self, a, b):
        return self._derivation(self.br, self.shift, self.br, self.shift, a, b)

    def leibniz(self, a, b):
        return self._derivation(self.br, self.shift, self.prod, 0, a, b)

    def first_arg(self, a, b):
        prod, dev, deg = self.prod, self.dev, self.deg
        rhs = _compose({}, prod[a].get, dev[b])
        # dev(a,c)*b, whose sign depends on c
        for c, combo in dev[a].items():
            apply_map(lambda x: prod[x].get(b), combo, rhs.setdefault(c, {}),
                      ksign(deg[b] * (deg[c] + 1)))
        return _nonzero(_mix({}, dev, prod[a].get(b, {}))), _nonzero(rhs)

    def second_arg(self, a, b):
        return self._derivation(self.dev, 1, self.prod, 0, a, b)

    def seven_term(self, a, b):
        """delta(a*b*c) against the six terms of a second-order operator."""
        prod, dprod, dleft = self.prod, self.dprod, self.dleft
        da, db = self.deg[a], self.deg[b]
        sa = ksign(da)
        ab = prod[a].get(b, {})
        rhs = _mix({}, prod, dprod[a].get(b, {}))
        _compose(rhs, prod[a].get, dprod[b], sa)
        _compose(rhs, prod[b].get, dprod[a], ksign((da + 1) * db))
        _compose(rhs, dleft[a].get, prod[b], -1)
        _compose(rhs, prod[a].get, dleft[b], -sa)
        _mix(rhs, self.dright, ab, -ksign(da + db))
        return _nonzero(_mix({}, dprod, ab)), _nonzero(rhs)

    def witness(self, label):
        """First basis tuple on which the identity's two sides differ,
        rendered with each side divided by scale^degree, its exact value;
        None when they agree on every tuple.  Prefixes go in product
        order, the last names of a failing prefix in basis order."""
        sides, arity, degree, lhs_text, rhs_text = IDENTITIES[label]
        names = self.space.names
        unit = self.scale ** degree

        def render(combo):
            return self.space.render({x: Fraction(v, unit) for x, v in combo.items()})

        for prefix in itertools.product(names, repeat=arity - 1):
            lhs, rhs = sides(self, *prefix)
            if lhs != rhs:
                c = next(c for c in names if lhs.get(c) != rhs.get(c))
                lhs, rhs = lhs.get(c, {}), rhs.get(c, {})
                where = ", ".join(f"{v}={n}" for v, n in zip("abc", prefix + (c,)))
                tail = f", {rhs_text} {render(rhs)}" if rhs_text else ""
                return f"{where}: {lhs_text} = {render(lhs)}{tail}"
        return None

    def add_laws(self, rep, labels):
        """One report line per identity, in order; False at the first
        failure, which ends the run."""
        return all(rep.add(label, self.witness(label)) for label in labels)


# label -> (sides, arity, degree, left side as printed, right side as
# printed); the degree is the number of structure constants in each term
IDENTITIES = {
    "product is graded commutative": (Tabulation.commutative, 2, 1, "b*a", "expected"),
    "product is associative": (Tabulation.associative, 3, 2, "(a*b)*c", "a*(b*c) ="),
    "delta squares to zero": (Tabulation.delta_square, 1, 2, "delta(delta(a))", None),
    "bracket is graded antisymmetric": (Tabulation.antisymmetric, 2, 1, "[b,a]", "expected"),
    "bracket satisfies the graded Jacobi identity":
        (Tabulation.jacobi, 3, 2, "[a,[b,c]]", "expected"),
    "bracket is a graded derivation of the product":
        (Tabulation.leibniz, 3, 2, "[a,b*c]", "expected"),
    "deviation is a derivation in its first argument":
        (Tabulation.first_arg, 3, 3, "dev(a*b, c)", "expected"),
    "deviation is a derivation in its second argument":
        (Tabulation.second_arg, 3, 3, "dev(a, b*c)", "expected"),
    "seven-term identity holds": (Tabulation.seven_term, 3, 3, "delta(a*b*c)", "expected"),
}
PRODUCT_LAWS = ("product is graded commutative", "product is associative")
BRACKET_LAWS = (
    "bracket is graded antisymmetric",
    "bracket satisfies the graded Jacobi identity",
)
DEVIATION_LAWS = (
    "deviation is a derivation in its first argument",
    "deviation is a derivation in its second argument",
    "seven-term identity holds",
)
