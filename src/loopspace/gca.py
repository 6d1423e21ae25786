"""Free graded-commutative algebras over the rationals.

Algebras here are free on a finite list of generators, each carrying a
positive integer degree.  Odd-degree generators anticommute and square to
zero; even-degree generators are polynomial.  Coefficients are exact
rationals, ints or ``fractions.Fraction`` values (parsing makes Fractions),
so signs, ranks and dimensions computed downstream are exact integers
rather than floating-point estimates.  ``Derivation.integral`` gives the
int copy of a derivation that the homology layer's slices are built from.

Canonical form: generators are totally ordered by (degree, name); a monomial
is the tuple of (generator, exponent) pairs in that order; an element is a
finite rational combination of canonical monomials with no zero terms.
Reordering a product picks up the usual sign, minus one per transposition of
two odd factors.

Values are never mutated after construction and all operations are pure, so
concurrent evaluation needs no locking.

Sparse image contract: ``Derivation.image(mono)`` returns D(mono) of one
canonical monomial as a {monomial: coefficient} dict with no zero values,
built with one ``mono_mul`` per term of D(g) for each factor g.  The
homology layer reads these dicts directly, so its hot path makes no
GradedElement per basis monomial.  Images are computed on every call and no
per-monomial cache is kept: a memo per derivation made ``gysin --model s2.min
--cutoff 16`` only about a quarter faster but raised its peak resident memory
from 17.2 to 18.1 MB (and ``betti`` on the s2xs3 string complex at cutoff 12
from 17.3 to 17.8 MB), and peak memory is a benchmarked metric.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .checks import NAME_RE, InputError, add_into, apply_map, format_terms, integral

__all__ = [
    "AlgebraError",
    "ElementSyntaxError",
    "GradedAlgebra",
    "GradedElement",
    "Derivation",
]

_TOKEN_RE = re.compile(rf"(?P<num>\d+)|(?P<name>{NAME_RE.pattern})|(?P<op>[+\-*/^])")

# A monomial is a tuple of (generator index, exponent) pairs, indices strictly
# increasing, exponents >= 1 and equal to 1 on odd generators.  The empty
# tuple is the unit monomial.
Monomial = tuple


class AlgebraError(InputError):
    """Structurally invalid operation: mixed algebras, bad generator data."""


class ElementSyntaxError(InputError):
    """Malformed element expression."""


class GradedAlgebra:
    """A free graded-commutative algebra over Q with named generators."""

    def __init__(self, generators):
        gens = []
        seen = set()
        for name, degree in generators:
            degree = int(degree)
            if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                raise AlgebraError(f"invalid generator name {name!r}")
            if degree < 1:
                raise AlgebraError(
                    f"generator {name!r}: degree must be >= 1, got {degree}"
                )
            if name in seen:
                raise AlgebraError(f"duplicate generator name {name!r}")
            seen.add(name)
            gens.append((name, degree))
        # Total order fixing all canonical forms and basis enumerations.
        gens.sort(key=lambda nd: (nd[1], nd[0]))
        self.generators = tuple(gens)
        self.names = tuple(n for n, _ in gens)
        self.degrees = tuple(d for _, d in gens)
        self._odd = tuple(d % 2 for d in self.degrees)
        self._index = {n: i for i, (n, _) in enumerate(gens)}
        # basis(n) and its prefix ends per degree, built up from degree 0
        self._bases = [[()]]
        self._ends = [[1] * (len(gens) + 1)]

    # -- generator bookkeeping -------------------------------------------

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, GradedAlgebra) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        body = ", ".join(f"{n}:{d}" for n, d in self.generators)
        return f"GradedAlgebra({body})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def first_nonzero(self, op):
        """First generator g, in generator order, with op(g) nonzero, as
        (name, op(g)); None when op vanishes on every generator."""
        for name in self.names:
            v = op(self.gen(name))
            if v:
                return name, v
        return None

    # -- element constructors --------------------------------------------

    def zero(self):
        return GradedElement(self, {})

    def one(self):
        return GradedElement(self, {(): 1})

    def gen(self, name):
        i = self.index(name)
        return GradedElement(self, {((i, 1),): 1})

    # -- monomials ---------------------------------------------------------

    def monomial_degree(self, mono):
        return sum(self.degrees[g] * e for g, e in mono)

    def monomial_str(self, mono):
        if not mono:
            return "1"
        parts = []
        for g, e in mono:
            parts.append(self.names[g] if e == 1 else f"{self.names[g]}^{e}")
        return "*".join(parts)

    def _mono_sort_key(self, mono):
        vec = [0] * len(self.generators)
        for g, e in mono:
            vec[g] = e
        return (self.monomial_degree(mono), tuple(vec))

    def mono_mul(self, m1, m2):
        """Multiply canonical monomials.

        Returns (monomial, sign); (None, 0) when an odd generator squares.
        The sign is minus one per pair of odd factors that must swap places
        while merging.
        """
        if not m1:
            return m2, 1
        if not m2:
            return m1, 1
        odd = self._odd
        exps = dict(m1)
        inv = 0
        for g, e in m2:
            if g in exps:
                if odd[g]:
                    return None, 0
                exps[g] += e
                continue
            if odd[g]:
                # m2's earlier factors are all below g: count m1's odd ones above it
                inv += sum(odd[p] for p in exps if p > g)
            exps[g] = e
        return tuple(sorted(exps.items())), -1 if inv & 1 else 1

    def basis(self, n):
        """Canonical monomials of degree exactly n, the same list on every
        call.

        Ordered lexicographically on the exponent vector over the generator
        order, smallest first; the order is what every report and every
        matrix slice downstream indexes by.  In that order the monomials
        whose first generator is q or later form a prefix of the list, and
        ``_ends[n][q]`` is its length.  So the block of monomials starting
        with g_q^e is g_q^e times the prefix of basis(n - e*deg g_q) that
        starts after q, and degree n is built from lower degrees, blocks
        appended from the last generator to the first.
        """
        if n < 0:
            return []
        bases, ends, degs = self._bases, self._ends, self.degrees
        while len(bases) <= n:
            r = len(bases)
            out, cut = [], [0] * (len(degs) + 1)
            for q in range(len(degs) - 1, -1, -1):
                d = degs[q]
                for e in range(1, (min(r // d, 1) if d % 2 else r // d) + 1):
                    head, s = ((q, e),), r - e * d
                    out += [head + m for m in bases[s][:ends[s][q + 1]]]
                cut[q] = len(out)
            bases.append(out)
            ends.append(cut)
        return bases[n]

    # -- moving elements between algebras ----------------------------------

    def transfer(self, elt, target):
        """Re-express an element in another algebra containing the same
        named generators (same degrees).  Generator order is preserved by the
        shared (degree, name) key, so no signs appear."""
        if elt.algebra is not self and elt.algebra != self:
            raise AlgebraError("element does not belong to this algebra")
        out = {}
        for mono, c in elt.terms.items():
            new = []
            for g, e in mono:
                j = target.index(self.names[g])
                if target.degrees[j] != self.degrees[g]:
                    raise AlgebraError(
                        f"generator {self.names[g]!r} changes degree under transfer"
                    )
                new.append((j, e))
            new.sort()
            out[tuple(new)] = c
        return GradedElement(target, out)

    # -- parsing -----------------------------------------------------------

    def parse(self, text):
        """Parse an element expression.

        Grammar: a signed sum of terms ``c * g1^e1*g2^e2*...`` with rational
        coefficient ``p`` or ``p/q``; ``^1`` may be dropped, the coefficient
        may be dropped, and the constant monomial is written ``1``.
        Whitespace is ignored everywhere, so ``1 x^2`` and ``1*x^2`` agree.
        One pass over the tokens: each term is a coefficient and a monomial,
        multiplied factor by factor through mono_mul, and added into the
        result.
        """
        toks = _tokenize(text)
        if not toks:
            raise ElementSyntaxError("empty element expression")
        toks.append(("end", "", None))
        out, p = {}, 0
        while True:
            # a term: its sign, which only the first may leave out, then
            # factors joined by '*' or by a coefficient directly before a name
            coeff, mono = Fraction(-1 if toks[p][1] == "-" else 1), ()
            p += toks[p][1] in ("+", "-")
            while True:
                kind, val, pos = toks[p]
                p += 1
                if kind == "num":
                    n = int(val)
                    if toks[p][1] == "/":
                        kind, den, _ = toks[p + 1]
                        if kind != "num":
                            raise ElementSyntaxError("expected denominator after '/'")
                        if not int(den):
                            raise ElementSyntaxError("zero denominator")
                        n, p = Fraction(n, int(den)), p + 2
                    coeff *= n
                    if toks[p][0] == "name":
                        continue
                elif kind == "name":
                    i, e = self.index(val), 1  # AlgebraError on unknown names
                    if toks[p][1] == "^":
                        kind, e, _ = toks[p + 1]
                        if kind != "num":
                            raise ElementSyntaxError("expected integer exponent after '^'")
                        e, p = int(e), p + 2
                    if e and coeff:
                        # an odd generator squares to zero
                        mono, s = self.mono_mul(mono, ((i, e),))
                        coeff *= 0 if e > 1 and self._odd[i] else s
                elif kind == "end":
                    raise ElementSyntaxError("dangling operator at end of expression")
                else:
                    raise ElementSyntaxError(
                        f"expected coefficient or generator at position {pos}, got {val!r}"
                    )
                if toks[p][1] != "*":
                    break
                p += 1
                if toks[p][0] == "end":
                    raise ElementSyntaxError("dangling '*' at end of expression")
            add_into(out, {mono: coeff})
            kind, val, pos = toks[p]
            if kind == "end":
                return GradedElement(self, out)
            if val not in ("+", "-"):
                raise ElementSyntaxError(f"expected '+' or '-' at position {pos}, got {val!r}")


def _tokenize(text):
    """The tokens of text with its whitespace removed, as (kind, text,
    position), kind "num", "name" or "op"."""
    s = "".join(text.split())
    toks = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ElementSyntaxError(f"unexpected character {s[pos]!r} at position {pos}")
        toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return toks


class GradedElement:
    """A rational combination of canonical monomials of a fixed algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def degrees(self):
        return sorted({self.algebra.monomial_degree(m) for m in self.terms})

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("operands live in different algebras")

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_same(other)
        return GradedElement(self.algebra, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GradedElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedElement(self.algebra, add_into({}, self.terms, Fraction(other)))
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_same(other)
        alg = self.algebra
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, sign = alg.mono_mul(m1, m2)
                if mono is None:
                    continue
                out[mono] = out.get(mono, Fraction(0)) + sign * c1 * c2
        return GradedElement(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    __hash__ = None

    # -- display ----------------------------------------------------------

    def __str__(self):
        alg = self.algebra
        items = sorted(self.terms.items(), key=lambda mc: alg._mono_sort_key(mc[0]))
        return format_terms((alg.monomial_str(m) if m else None, c) for m, c in items)

    def __repr__(self):
        return f"<{self}>"


class Derivation:
    """A degree-r derivation of a free graded-commutative algebra.

    Determined by its values on generators and extended by the graded
    Leibniz rule D(m*m') = D(m)*m' + (-1)^{r*deg(m)} m*D(m').  ``check``
    enforces that each value is homogeneous of degree deg(g) + r (or zero);
    validators re-run the same check on demand so deliberately broken tables
    can be built with check=False.
    """

    def __init__(self, algebra, degree, values=None, check=True):
        self.algebra = algebra
        self.degree = int(degree)
        vals = {}
        for name, v in (values or {}).items():
            i = algebra.index(name)
            if isinstance(v, str):
                v = algebra.parse(v)
            if not isinstance(v, GradedElement):
                raise AlgebraError(f"value for {name!r} is not an element")
            if v.algebra != algebra:
                raise AlgebraError(f"value for {name!r} lives in a different algebra")
            if v:
                vals[i] = v
        self._values = vals
        if check:
            bad = self.check_degrees()
            if bad is not None:
                name, want, got = bad
                raise AlgebraError(
                    f"derivation value for {name!r} has degrees {got}, expected {want}"
                )

    def check_degrees(self):
        """First generator whose value is not homogeneous of the right
        degree, as (name, expected, got-degrees); None when consistent."""
        alg = self.algebra
        for i in sorted(self._values):
            v = self._values[i]
            want = alg.degrees[i] + self.degree
            got = v.degrees()
            if got != [want]:
                return (alg.names[i], want, got)
        return None

    def image(self, mono):
        """D(mono) as a sparse {monomial: coefficient} dict.

        For each factor g^e write mono = s * g * q, where q is mono with one
        power of g removed and s = (-1)^(deg(g) * deg(prefix)) moves g past
        the factors before it.  The factor then contributes s * e * D(g) * q,
        one mono_mul per term of D(g).
        """
        alg = self.algebra
        out = {}
        parity = 0      # degree parity of the factors before position t
        for t, (g, e) in enumerate(mono):
            val = self._values.get(g)
            odd = alg._odd[g]
            if val is not None:
                q = mono[:t] + (((g, e - 1),) if e > 1 else ()) + mono[t + 1:]
                k = -e if (odd and parity) else e
                for m, c in val.terms.items():
                    prod, s = alg.mono_mul(m, q)
                    if prod is not None:
                        out[prod] = out.get(prod, 0) + k * s * c
            parity ^= odd & e
        return {m: c for m, c in out.items() if c}

    def integral(self):
        """(D times this derivation, D), for D the lcm of the denominators
        of its values; the copy's coefficients are ints."""
        (values,), scale = integral([{i: v.terms for i, v in self._values.items()}])
        copy = Derivation(self.algebra, self.degree, check=False)
        copy._values = {i: GradedElement(self.algebra, t) for i, t in values.items()}
        return copy, scale

    def __call__(self, elt):
        if not isinstance(elt, GradedElement):
            raise AlgebraError("derivations apply to elements")
        if elt.algebra != self.algebra:
            raise AlgebraError("element lives in a different algebra")
        return GradedElement(self.algebra, apply_map(self.image, elt.terms))

    def __repr__(self):
        body = ", ".join(
            f"{self.algebra.names[i]} -> {v}" for i, v in sorted(self._values.items())
        )
        return f"Derivation(deg {self.degree}; {body})"
