"""Free graded-commutative algebras over the rationals.

Algebras here are free on a finite list of generators, each carrying a
positive integer degree.  Odd-degree generators anticommute and square to
zero; even-degree generators are polynomial.  Coefficients are exact
``fractions.Fraction`` values throughout, so signs, ranks and dimensions
computed downstream are exact integers rather than floating-point estimates.

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

from .checks import add_into

__all__ = [
    "AlgebraError",
    "ElementSyntaxError",
    "GradedAlgebra",
    "GradedElement",
    "Derivation",
    "graded_commutator",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[+\-*/^]")

# A monomial is a tuple of (generator index, exponent) pairs, indices strictly
# increasing, exponents >= 1 and equal to 1 on odd generators.  The empty
# tuple is the unit monomial.
Monomial = tuple


class AlgebraError(ValueError):
    """Structurally invalid operation: mixed algebras, bad generator data."""


class ElementSyntaxError(ValueError):
    """Malformed element expression."""


class GradedAlgebra:
    """A free graded-commutative algebra over Q with named generators."""

    def __init__(self, generators):
        gens = []
        seen = set()
        for name, degree in generators:
            degree = int(degree)
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
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
        self._basis_cache = {}

    # -- generator bookkeeping -------------------------------------------

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
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

    def is_odd(self, i):
        return self.degrees[i] % 2 == 1

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
        return GradedElement(self, {(): Fraction(1)})

    def gen(self, name):
        i = self.index(name)
        return GradedElement(self, {((i, 1),): Fraction(1)})

    def element(self, terms):
        """Build an element from a mapping monomial -> coefficient."""
        out = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c:
                out[mono] = out.get(mono, Fraction(0)) + c
        return GradedElement(self, {m: c for m, c in out.items() if c})

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
        """Canonical monomials of degree exactly n.

        Ordered lexicographically on the exponent vector over the generator
        order, smallest first; the order is what every report and every
        matrix slice downstream indexes by.
        """
        if n < 0:
            return []
        if n not in self._basis_cache:
            out = []
            degs = self.degrees
            k = len(degs)

            def rec(p, remaining, acc):
                if remaining == 0:
                    out.append(tuple(acc))
                    return
                if p == k:
                    return
                rec(p + 1, remaining, acc)
                d = degs[p]
                max_e = 1 if degs[p] % 2 else remaining // d
                for e in range(1, max_e + 1):
                    if e * d > remaining:
                        break
                    acc.append((p, e))
                    rec(p + 1, remaining - e * d, acc)
                    acc.pop()

            rec(0, n, [])
            self._basis_cache[n] = out
        return self._basis_cache[n]

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
        """
        toks = _tokenize(text)
        if not toks:
            raise ElementSyntaxError("empty element expression")
        result = self.zero()
        p = 0
        first = True
        while p < len(toks):
            kind, val, pos = toks[p]
            sign = 1
            if kind == "op" and val in "+-":
                sign = -1 if val == "-" else 1
                p += 1
            elif not first:
                raise ElementSyntaxError(
                    f"expected '+' or '-' at position {pos}, got {val!r}"
                )
            term, p = self._parse_term(toks, p)
            result = result + (sign * term)
            first = False
        return result

    def _parse_term(self, toks, p):
        coeff = Fraction(1)
        mono = self.one()
        prev_numeric = False
        saw = False
        while True:
            if p >= len(toks):
                if saw:
                    break
                raise ElementSyntaxError("dangling operator at end of expression")
            kind, val, pos = toks[p]
            if kind == "num":
                n = int(val)
                p += 1
                if p < len(toks) and toks[p][0] == "op" and toks[p][1] == "/":
                    p += 1
                    if p >= len(toks) or toks[p][0] != "num":
                        raise ElementSyntaxError("expected denominator after '/'")
                    den = int(toks[p][1])
                    if den == 0:
                        raise ElementSyntaxError("zero denominator")
                    coeff *= Fraction(n, den)
                    p += 1
                else:
                    coeff *= n
                prev_numeric = True
            elif kind == "name":
                i = self.index(val)  # AlgebraError on unknown names
                e = 1
                p += 1
                if p < len(toks) and toks[p][0] == "op" and toks[p][1] == "^":
                    p += 1
                    if p >= len(toks) or toks[p][0] != "num":
                        raise ElementSyntaxError("expected integer exponent after '^'")
                    e = int(toks[p][1])
                    p += 1
                if e:
                    mono = mono * GradedElement(self, {((i, e),): Fraction(1)}) \
                        if not (self.is_odd(i) and e > 1) else self.zero()
                prev_numeric = False
            else:
                raise ElementSyntaxError(
                    f"expected coefficient or generator at position {pos}, got {val!r}"
                )
            saw = True
            if p < len(toks) and toks[p][0] == "op" and toks[p][1] == "*":
                p += 1
                if p >= len(toks):
                    raise ElementSyntaxError("dangling '*' at end of expression")
                continue
            # juxtaposition: a coefficient directly followed by a name
            if p < len(toks) and toks[p][0] == "name" and prev_numeric:
                continue
            break
        return coeff * mono, p


def _tokenize(text):
    s = "".join(text.split())
    toks = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ElementSyntaxError(f"unexpected character {s[pos]!r} at position {pos}")
        t = m.group()
        if t[0].isdigit():
            toks.append(("num", t, pos))
        elif _NAME_RE.fullmatch(t):
            toks.append(("name", t, pos))
        else:
            toks.append(("op", t, pos))
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

    def degree(self):
        """The degree of a homogeneous element; None for zero (every degree)."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise AlgebraError(f"element is not homogeneous: degrees {ds}")
        return ds[0]

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("operands live in different algebras")

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return GradedElement(self.algebra, out)

    def __sub__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GradedElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return GradedElement(
                self.algebra, {m: c * v for m, v in self.terms.items()}
            )
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
        if not self.terms:
            return "0"
        alg = self.algebra
        items = sorted(self.terms.items(), key=lambda mc: alg._mono_sort_key(mc[0]))
        pieces = []
        for k, (mono, c) in enumerate(items):
            neg = c < 0
            a = -c if neg else c
            if mono == ():
                body = str(a)
            elif a == 1:
                body = alg.monomial_str(mono)
            else:
                body = f"{a}*{alg.monomial_str(mono)}"
            if k == 0:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

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

    def __call__(self, elt):
        if not isinstance(elt, GradedElement):
            raise AlgebraError("derivations apply to elements")
        if elt.algebra != self.algebra:
            raise AlgebraError("element lives in a different algebra")
        out = {}
        for mono, c in elt.terms.items():
            add_into(out, self.image(mono), c)
        return GradedElement(self.algebra, out)

    def __repr__(self):
        body = ", ".join(
            f"{self.algebra.names[i]} -> {v}" for i, v in sorted(self._values.items())
        )
        return f"Derivation(deg {self.degree}; {body})"


def graded_commutator(d1, d2):
    """The graded commutator of two derivations, itself a derivation.

    g -> D1(D2(g)) - (-1)^{deg(D1) deg(D2)} D2(D1(g)), of degree
    deg(D1)+deg(D2).  For two odd-degree derivations this is the
    anticommutator: graded_commutator(d, delta) computes d∘delta + delta∘d,
    and graded_commutator(d, d) computes 2·(d∘d).
    """
    if d1.algebra != d2.algebra:
        raise AlgebraError("derivations live in different algebras")
    alg = d1.algebra
    sign = -1 if (d1.degree % 2 and d2.degree % 2) else 1
    values = {}
    for name in alg.names:
        g = alg.gen(name)
        v = d1(d2(g)) - sign * d2(d1(g))
        if v:
            values[name] = v
    return Derivation(alg, d1.degree + d2.degree, values, check=False)
