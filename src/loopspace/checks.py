"""What every identity checker shares: sparse combinations accumulated in
place, the ordered report of check outcomes, and the identities
themselves, each stated once.

A combination is a dict key -> coefficient that never stores a zero, so
two combinations are equal exactly when they are equal as dicts.

An identity is a method of Tabulation that returns its two sides on one
basis tuple; IDENTITIES declares each one with its arity and its printed
sides, and Tabulation.witness walks every tuple for it.  A space is
anything with ordered ``names``, ``degree(name)`` and ``render(combo)``.
"""

from __future__ import annotations

import functools
import itertools

__all__ = [
    "add_into",
    "ksign",
    "apply_map",
    "CheckReport",
    "Tabulation",
    "IDENTITIES",
    "PRODUCT_LAWS",
    "BRACKET_LAWS",
    "DEVIATION_LAWS",
]


def add_into(acc, combo, scale=1):
    """acc += scale * combo, in place, dropping every coefficient that is
    or becomes zero; returns acc."""
    if scale == 1:
        terms = combo.items()
    elif scale == -1:
        terms = [(key, -v) for key, v in combo.items()]
    elif scale:
        terms = [(key, scale * v) for key, v in combo.items()]
    else:
        return acc
    for key, v in terms:
        c = acc.get(key)
        if c is not None:
            v = c + v
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


def ksign(e):
    """(-1)^e."""
    return -1 if e % 2 else 1


def apply_map(table, combo):
    """The linear map with table name -> combo, on a combination."""
    out = {}
    for x, cx in combo.items():
        row = table.get(x)
        if row:
            add_into(out, row, cx)
    return out


class CheckReport:
    """Ordered check outcomes; text() is the CLI rendering."""

    def __init__(self):
        self.lines = []

    def add(self, label, witness=None):
        self.lines.append((label, witness))
        return witness is None

    @property
    def ok(self):
        return all(w is None for _, w in self.lines)

    def failures(self):
        return [(l, w) for l, w in self.lines if w is not None]

    def text(self):
        out = []
        for label, witness in self.lines:
            if witness is None:
                out.append(f"check {label}: pass\n")
            else:
                out.append(f"check {label}: FAIL {witness}\n")
        return "".join(out)


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


class Tabulation:
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
        return {k: apply_map(delta, ab) for k, ab in self.prod.items()}

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
            s = ksign(self.deg[a])
            acc = add_into({}, self.dprod[a, b], s)
            add_into(acc, self.dleft[a, b], -s)
            out[a, b] = add_into(acc, self.dright[a, b], -1)
        return out

    # Each identity below returns its two sides on one basis tuple.

    def commutative(self, a, b):
        prod = self.prod
        return prod[b, a], add_into({}, prod[a, b], ksign(self.deg[a] * self.deg[b]))

    def associative(self, a, b, c):
        prod = self.prod
        return _right(prod, prod[a, b], c, {}), _left(prod, a, prod[b, c], {})

    def delta_square(self, a):
        return apply_map(self.delta, self.delta[a]), {}

    def antisymmetric(self, a, b):
        s, br = self.shift, self.br
        sign = -ksign((self.deg[a] + s) * (self.deg[b] + s))
        return br[b, a], add_into({}, br[a, b], sign)

    def jacobi(self, a, b, c):
        s, br = self.shift, self.br
        rhs = _right(br, br[a, b], c, {})
        _left(br, b, br[a, c], rhs, ksign((self.deg[a] + s) * (self.deg[b] + s)))
        return _left(br, a, br[b, c], {}), rhs

    def leibniz(self, a, b, c):
        prod, br = self.prod, self.br
        rhs = _right(prod, br[a, b], c, {})
        _left(prod, b, br[a, c], rhs, ksign(self.deg[b] * (self.deg[a] + self.shift)))
        return _left(br, a, prod[b, c], {}), rhs

    def first_arg(self, a, b, c):
        prod, dev = self.prod, self.dev
        rhs = _left(prod, a, dev[b, c], {})
        _right(prod, dev[a, c], b, rhs, ksign(self.deg[b] * (self.deg[c] + 1)))
        return _right(dev, prod[a, b], c, {}), rhs

    def second_arg(self, a, b, c):
        prod, dev = self.prod, self.dev
        rhs = _right(prod, dev[a, b], c, {})
        _left(prod, b, dev[a, c], rhs, ksign(self.deg[b] * (self.deg[a] + 1)))
        return _left(dev, a, prod[b, c], {}), rhs

    def seven_term(self, a, b, c):
        """delta(a*b*c) against the six terms of a second-order operator."""
        prod, dprod, dleft = self.prod, self.dprod, self.dleft
        da, db = self.deg[a], self.deg[b]
        sa = ksign(da)
        ab = prod[a, b]
        rhs = _right(prod, dprod[a, b], c, {})
        _left(prod, a, dprod[b, c], rhs, sa)
        _left(prod, b, dprod[a, c], rhs, ksign((da + 1) * db))
        _left(dleft, a, prod[b, c], rhs, -1)
        _left(prod, a, dleft[b, c], rhs, -sa)
        _right(self.dright, ab, c, rhs, -ksign(da + db))
        return _right(dprod, ab, c, {}), rhs

    def witness(self, label):
        """First basis tuple on which the identity's two sides differ,
        rendered; None when they agree on every tuple."""
        sides, arity, lhs_text, rhs_text = IDENTITIES[label]
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
IDENTITIES = {
    "product is graded commutative": (Tabulation.commutative, 2, "b*a", "expected"),
    "product is associative": (Tabulation.associative, 3, "(a*b)*c", "a*(b*c) ="),
    "delta squares to zero": (Tabulation.delta_square, 1, "delta(delta(a))", None),
    "bracket is graded antisymmetric": (Tabulation.antisymmetric, 2, "[b,a]", "expected"),
    "bracket satisfies the graded Jacobi identity":
        (Tabulation.jacobi, 3, "[a,[b,c]]", "expected"),
    "bracket is a graded derivation of the product":
        (Tabulation.leibniz, 3, "[a,b*c]", "expected"),
    "deviation is a derivation in its first argument":
        (Tabulation.first_arg, 3, "dev(a*b, c)", "expected"),
    "deviation is a derivation in its second argument":
        (Tabulation.second_arg, 3, "dev(a, b*c)", "expected"),
    "seven-term identity holds": (Tabulation.seven_term, 3, "delta(a*b*c)", "expected"),
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
