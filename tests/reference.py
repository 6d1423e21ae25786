"""Reference constructions kept for the tests.

The library applies derivations and chain maps through sparse
{monomial: coefficient} image functions.  The helpers here build the same
things the slow, obvious way, through GradedElement arithmetic, so the
tests can compare the two; they also hold the element constructor, the
graded commutator and the chain-map combinators that only tests use, and
the chain-map check that evaluates both differentials per monomial.  The
Goldman bracket is kept here too, on letter tuples: the library builds
each term from slices of rank strings and cuts the letters that cancel
where the two words join, while the reference reduces every whole
concatenation with its own stack of int letters, where the library
reduces rank strings, and tries every rotation.  The Jacobi fuzz is kept on
CyclicWord combinations, where the library adds {key: coefficient}
combinations of one surface.  The Gerstenhaber and BV identities are kept
here tuple by tuple on pair tables of the exact Fraction tables, where
the library clears denominators and evaluates a row of last names at a
time on ints.  The canonical wedge words are kept as filtered
combinations of one length, where the library grows each length from the
one before, and the graded symmetry of the marked-point operations is
walked here from arity 2, where the library starts at arity 3 because
bracket antisymmetry is the arity-2 condition.  The element parser is
kept as it was written before it became one pass: a term parser beside
a sum parser, with a GradedElement per factor.  The deviation bracket of
a BV table and the truncated Euler identity, which only tests use, are
kept here too, with a rational change of basis of a structure table and a
switch that runs the checkers on Fractions throughout.  Every combination
here is added by this module's own add_into, which forms all the sums
before it drops the zeros, where the library's add_into and apply_map add
in one pass into the caller's accumulator; the reference shares no
combination arithmetic with the code it checks.  The command-line parser
is kept here as argparse builds it from the command table, the renderer
of every help text and usage error, which the command-line tests hold
the program to.
"""

import argparse
import functools
import itertools
import random
import re
from fractions import Fraction

from loopspace import checks, coderivations
from loopspace.cli import _COMMANDS
from loopspace.checks import IDENTITIES, ksign
from loopspace.gca import AlgebraError, Derivation, ElementSyntaxError, GradedElement
from loopspace.goldman import CyclicWord, goldman_bracket, random_reduced_cyclic_word
from loopspace.homology import ChainMap, ChainMapError
from loopspace.structures import StructureError, StructureTable


def add_into(acc, combo, scale=1):
    """acc += scale * combo in exact arithmetic: every sum formed first,
    then the keys whose sums are zero deleted; returns acc."""
    for key, v in combo.items():
        acc[key] = acc.get(key, 0) + scale * v
    for key in [key for key in combo if not acc[key]]:
        del acc[key]
    return acc


def apply_table(f, combo):
    """The linear map taking each key x to the combination f(x), or to
    zero where f(x) is empty or None, on a combination."""
    out = {}
    for x, cx in combo.items():
        add_into(out, f(x) or {}, cx)
    return out


def reference_basis(alg, n):
    """Canonical monomials of degree n by brute force: every exponent vector
    of degree n (at most 1 on odd generators), sorted lexicographically.
    Vectors grow one generator at a time, and those already above degree n
    are dropped."""
    partial = [((), 0)]
    for d in alg.degrees:
        partial = [(v + (e,), s + e * d) for v, s in partial
                   for e in range(2 if d % 2 else n // d + 1) if s + e * d <= n]
    vectors = sorted(v for v, s in partial if s == n)
    return [tuple((g, e) for g, e in enumerate(v) if e) for v in vectors]


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[+\-*/^]")


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


def reference_parse(alg, text):
    """alg.parse(text) as a signed sum of terms, each term parsed by
    _parse_term and added as an element."""
    toks = _tokenize(text)
    if not toks:
        raise ElementSyntaxError("empty element expression")
    result = alg.zero()
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
        term, p = _parse_term(alg, toks, p)
        result = result + (sign * term)
        first = False
    return result


def _parse_term(alg, toks, p):
    coeff = Fraction(1)
    mono = alg.one()
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
            i = alg.index(val)  # AlgebraError on unknown names
            e = 1
            p += 1
            if p < len(toks) and toks[p][0] == "op" and toks[p][1] == "^":
                p += 1
                if p >= len(toks) or toks[p][0] != "num":
                    raise ElementSyntaxError("expected integer exponent after '^'")
                e = int(toks[p][1])
                p += 1
            if e:
                mono = mono * GradedElement(alg, {((i, e),): Fraction(1)}) \
                    if not (alg._odd[i] and e > 1) else alg.zero()
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


def apply_monomial(deriv, mono):
    """D(mono) by the Leibniz rule written out factor by factor:
    prefix * (sign * e * D(g)) * g^(e-1) * rest, summed over the factors."""
    alg = deriv.algebra
    out = alg.zero()
    prefix_parity = 0
    d_parity = deriv.degree % 2
    for t, (g, e) in enumerate(mono):
        val = deriv._values.get(g)
        if val is not None:
            prefix = mono[:t]
            rest = list(mono[t + 1:])
            if e > 1:
                rest.insert(0, (g, e - 1))
            sign = -1 if (d_parity and prefix_parity % 2) else 1
            term = GradedElement(alg, {prefix: Fraction(sign * e)})
            term = term * GradedElement(alg, val)
            term = term * GradedElement(alg, {tuple(rest): Fraction(1)})
            out = out + term
        prefix_parity += alg.degrees[g] * e
    return out


def apply_map(f, elt):
    """The chain map f on an element of its source algebra."""
    out = {}
    for mono, c in elt.terms.items():
        for m, v in f.image(mono).items():
            out[m] = out.get(m, 0) + c * v
    return GradedElement(f.tgt.algebra, out)


def generator_images_map(src, tgt, images, name=""):
    """The degree-0 algebra map sending each generator to the given target
    element; generators not listed map to their namesakes.  Each monomial's
    image is the GradedElement product of its generators' images."""
    src_alg, tgt_alg = src.algebra, tgt.algebra
    table = {}
    for i, gname in enumerate(src_alg.names):
        v = images.get(gname)
        if v is None:
            v = tgt_alg.gen(gname)
        elif isinstance(v, str):
            v = tgt_alg.parse(v)
        elif not isinstance(v, GradedElement):
            v = tgt_alg.one() * v
        table[i] = v

    def image(mono):
        out = tgt_alg.one()
        for g, e in mono:
            for _ in range(e):
                out = out * table[g]
        return out.terms

    return ChainMap(src, tgt, 0, image, name=name)


def identity_map(cx):
    return ChainMap(cx, cx, 0, lambda mono: {mono: Fraction(1)}, name="identity")


def compose(outer, inner):
    """outer after inner."""
    if inner.tgt.algebra != outer.src.algebra:
        raise ChainMapError("composition: inner target does not match outer source")

    def image(mono):
        out = {}
        for m, c in inner.image(mono).items():
            for m2, v in outer.image(m).items():
                out[m2] = out.get(m2, 0) + c * v
        return {m: c for m, c in out.items() if c}

    return ChainMap(
        inner.src, outer.tgt, inner.degree + outer.degree, image,
        name=f"{outer.name or 'map'} after {inner.name or 'map'}",
    )


def reference_verify_chain_map(f, cutoff):
    """verify_chain_map monomial by monomial, on the basis reference_basis
    enumerates, with both differentials applied by apply_monomial's Leibniz
    rule: d_tgt on every term of f(m) and f on every term of d_src(m),
    summed as elements."""
    sign = -1 if f.degree % 2 else 1
    alg = f.tgt.algebra
    for n in range(cutoff + 1):
        for mono in reference_basis(f.src.algebra, n):
            lhs = alg.zero()
            for m, c in f.image(mono).items():
                lhs = lhs + c * apply_monomial(f.tgt.diff, m)
            rhs = sign * apply_map(f, apply_monomial(f.src.diff, mono))
            if lhs != rhs:
                return (n, mono, lhs, rhs)
    return None


def reference_transfer(elt, target):
    """elt re-expressed in target, an algebra holding elt's generators under
    the same names: each monomial rebuilt as the product, in target, of the
    generators named by its factors."""
    out = target.zero()
    for mono, c in elt.terms.items():
        term = target.one() * c
        for g, e in mono:
            for _ in range(e):
                term = term * target.gen(elt.algebra.names[g])
        out = out + term
    return out


def algebra_element(alg, terms):
    """The element of alg with the mapping monomial -> coefficient."""
    return GradedElement(alg, {m: Fraction(c) for m, c in terms.items()})


def element(cx, n, vec):
    """The element of cx with sparse coordinates vec over basis(n)."""
    basis = cx.algebra.basis(n)
    return algebra_element(cx.algebra, {basis[k]: c for k, c in vec.items()})


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


def span_contains(tracker, vec):
    """Whether vec lies in the span a SpanTracker holds."""
    return not tracker.reduce(vec)[0]


def boundary_components(graph):
    """Boundary cycles of a FatGraph's thickened surface, as letter lists:
    after half-edge x the boundary runs on from the one that follows x^-
    counterclockwise."""
    succ = dict(zip(graph.order, graph.order[1:] + graph.order[:1]))
    seen = set()
    out = []
    for start in graph.order:
        if start in seen:
            continue
        cycle = []
        x = start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = succ[-x]
        out.append(cycle)
    return out


def genus(graph):
    """Genus of the thickened surface, from its Euler characteristic
    1 - (number of generators) and its boundary count."""
    chi = 1 - len(graph.names)
    return (2 - len(boundary_components(graph)) - chi) // 2


def inverse(word):
    """The class of the loop run backwards."""
    return CyclicWord(word.graph, tuple(-x for x in reversed(word.letters)))


def reference_reduce(letters):
    """Free reduction of a letter tuple with a stack, then reduction across
    the wraparound."""
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    while len(stack) >= 2 and stack[0] == -stack[-1]:
        stack = stack[1:-1]
    return tuple(stack)


def min_rotation(graph, letters):
    """The rotation of a word whose token list is least, trying them all."""
    if not letters:
        return ()
    toks = [graph.token(x) for x in letters]
    best = min(range(len(letters)), key=lambda r: toks[r:] + toks[:r])
    return letters[best:] + letters[:best]


def _ccw3(pos, a, b, c):
    """+1 when reading counterclockwise from half-edge a meets b before c."""
    size = len(pos)
    return 1 if (pos[b] - pos[a]) % size < (pos[c] - pos[a]) % size else -1


def _pair_order(pos, w1, i1, w2, i2):
    """Order of the rays reading w1 from i1 and w2 from i2, cyclically,
    which share their first letter, read where they diverge against the
    dart pointing back along the shared path."""
    n1, n2 = len(w1), len(w2)
    k = 1
    while w1[(i1 + k) % n1] == w2[(i2 + k) % n2]:
        k += 1
        assert k <= 2 * (n1 + n2) + 4, "rays fail to diverge"
    back = -w1[(i1 + k - 1) % n1]
    return _ccw3(pos, w1[(i1 + k) % n1], w2[(i2 + k) % n2], back)


def reference_bracket(graph, w, v):
    """[w, v] for cyclically reduced letter tuples, as {least-rotation
    letter tuple: coefficient}.  Each basepoint pair whose strands cross
    contributes the whole concatenation, reduced by reference_reduce."""
    pos = {x: k for k, x in enumerate(graph.order)}
    m, n = len(w), len(v)
    iv = tuple(-x for x in reversed(v))
    out = {}
    for i in range(m):
        fa, ba = w[i], -w[i - 1]
        for j in range(n):
            fb, bb = v[j], -v[j - 1]
            if ba == bb or ba == fb:
                continue
            if fa == fb:
                o1 = _pair_order(pos, w, i, v, j)
            else:
                o1 = _ccw3(pos, fa, fb, ba)
            if fa == bb:
                o2 = _pair_order(pos, w, i, iv, n - j)
            else:
                o2 = _ccw3(pos, fa, bb, ba)
            if o1 != o2:
                term = min_rotation(graph, reference_reduce(w[i:] + w[:i] + v[j:] + v[:j]))
                out[term] = out.get(term, 0) + o1
    return {term: c for term, c in out.items() if c}


def format_letter_combo(graph, combo):
    """format_combo's text for {letter tuple: coefficient}: one line per
    class, ordered by token tuples."""
    rows = sorted((tuple(map(graph.token, w)), c) for w, c in combo.items())
    return "".join(f"{c}\t{' '.join(toks) or '1'}\n" for toks, c in rows)


def reference_jacobi_fuzz(graph, trials=200, max_len=6, seed=1, bracket=goldman_bracket):
    """jacobi_fuzz on {CyclicWord: coefficient} combinations, through a
    bracket of two CyclicWords: the same draws, verdict and witness, whose
    residual is read back on keys, as the library keeps it."""

    def combo(a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                add_into(out, bracket(wa, wb), ca * cb)
        return out

    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        u = random_reduced_cyclic_word(graph, rng, max_len)
        v = random_reduced_cyclic_word(graph, rng, max_len)
        w = random_reduced_cyclic_word(graph, rng, max_len)
        lhs = combo({u: 1}, bracket(v, w))
        rhs1 = combo(bracket(u, v), {w: 1})
        rhs2 = combo({v: 1}, bracket(u, w))
        residual = add_into(add_into(lhs, rhs1, -1), rhs2, -1)
        if residual:
            residual = {x.key: c for x, c in residual.items()}
            return {"trial": t, "u": u, "v": v, "w": w, "residual": residual}
    return None


def _left(table, a, combo, acc, sign=1):
    """acc += sign * (a . combo) for a pair table and a basis name a."""
    for y, v in combo.items():
        add_into(acc, table[a, y], sign * v)
    return acc


def _right(table, combo, c, acc, sign=1):
    """acc += sign * (combo . c) for a pair table and a basis name c."""
    for x, v in combo.items():
        add_into(acc, table[x, c], sign * v)
    return acc


class _PairTables:
    """The exact tables of a check, in Fractions as read, keyed by every
    basis pair, zero pairs included, with the identities evaluated on one
    whole basis tuple."""

    def __init__(self, space, product=None, bracket=None, delta=None, shift=1):
        names = space.names
        self.deg = {a: space.degree(a) for a in names}
        self.shift = shift

        def pairs(table):
            if table is None:
                return None
            return {(a, b): table.get((a, b), {}) for a in names for b in names}

        self.prod = pairs(product)
        self.br = pairs(bracket)
        self.delta = None if delta is None else {a: delta.get(a, {}) for a in names}

    @functools.cached_property
    def dprod(self):
        return {k: apply_table(self.delta.get, ab) for k, ab in self.prod.items()}

    @functools.cached_property
    def dleft(self):
        return {(a, b): _right(self.prod, self.delta[a], b, {}) for a, b in self.prod}

    @functools.cached_property
    def dright(self):
        return {(a, b): _left(self.prod, a, self.delta[b], {}) for a, b in self.prod}

    @functools.cached_property
    def dev(self):
        out = {}
        for a, b in self.prod:
            s = ksign(self.deg[a])
            acc = add_into({}, self.dprod[a, b], s)
            add_into(acc, self.dleft[a, b], -s)
            out[a, b] = add_into(acc, self.dright[a, b], -1)
        return out

    def commutative(self, a, b):
        prod = self.prod
        return prod[b, a], add_into({}, prod[a, b], ksign(self.deg[a] * self.deg[b]))

    def associative(self, a, b, c):
        prod = self.prod
        return _right(prod, prod[a, b], c, {}), _left(prod, a, prod[b, c], {})

    def delta_square(self, a):
        return apply_table(self.delta.get, self.delta[a]), {}

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


def reference_witness(space, label, product=None, bracket=None, delta=None, shift=1):
    """Tabulation(space, product, bracket, delta, shift).witness(label)
    tuple by tuple, in Fractions: the identity named by label (its method
    of the same name here) evaluated on every basis tuple in product
    order, on pair tables built from the exact tables given."""
    sides, arity, _, lhs_text, rhs_text = IDENTITIES[label]
    ref = _PairTables(space, product, bracket, delta, shift)
    render = space.render
    for tup in itertools.product(space.names, repeat=arity):
        lhs, rhs = getattr(ref, sides.__name__)(*tup)
        if lhs != rhs:
            where = ", ".join(f"{v}={n}" for v, n in zip("abc", tup))
            tail = f", {rhs_text} {render(rhs)}" if rhs_text else ""
            return f"{where}: {lhs_text} = {render(lhs)}{tail}"
    return None


def euler_check(cx, cutoff):
    """Truncated Euler identity.

    Sum (-1)^i b_i over i <= N telescopes against the dimension counts,
    leaving one boundary rank: it equals
    Sum (-1)^i dim_i  -  (-1)^N rank(d at N).
    """
    lhs = sum((-1) ** i * cx.betti(i) for i in range(cutoff + 1))
    rhs = sum((-1) ** i * cx.dim(i) for i in range(cutoff + 1))
    rhs -= (-1) ** cutoff * cx.rank(cutoff)
    return lhs == rhs


def with_bracket(t, bracket):
    """The structure table t with its bracket table replaced."""
    return StructureTable(t.space, t.product, bracket, t.delta,
                          t.string_space, t.erase, t.mark)


def rescaled_table(t, rng):
    """t in the basis lambda_e * e, each lambda_e a random +-p/q with
    1 <= p, q <= 9 drawn from rng, on the names of both bases: an entry
    op(a, b) = c*k becomes c * lambda_a * lambda_b / lambda_k * k.  An
    isomorphism, so every verdict stays, while the constants become
    fractions."""
    names = t.space.names + (t.string_space.names if t.string_space else ())
    lam = {n: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
           for n in names}

    def scaled(table):
        if table is None:
            return None
        out = {}
        for key, combo in table.items():
            factor = Fraction(1)
            for a in (key if isinstance(key, tuple) else (key,)):
                factor *= lam[a]
            out[key] = {x: c * factor / lam[x] for x, c in combo.items()}
        return out

    return StructureTable(t.space, scaled(t.product), scaled(t.bracket), scaled(t.delta),
                          t.string_space, scaled(t.erase), scaled(t.mark))


def fractions_only(monkeypatch):
    """Make the identity checkers skip clearing denominators: every table
    keeps its Fraction coefficients and the common scale is 1, so a check
    run afterwards is the all-Fraction evaluation of the same formulas."""
    def unscaled(tables):
        return list(tables), 1

    monkeypatch.setattr(checks, "integral", unscaled)
    monkeypatch.setattr(coderivations, "integral", unscaled)


def derived_bracket(t):
    """Table with the bracket replaced by the deviation of delta from
    being a derivation of the product."""
    if t.product is None or t.delta is None:
        raise StructureError("derived bracket needs product and delta tables")
    dev = _PairTables(t.space, product=t.product, delta=t.delta).dev
    return with_bracket(t, {pair: combo for pair, combo in dev.items() if combo})


def reference_wedge_words(n, sdegs, length):
    """All canonical words of the given length over n basis indices: the
    sorted tuples in which no odd index repeats."""
    for tup in itertools.combinations_with_replacement(range(n), length):
        if any(
            tup[i] == tup[i + 1] and sdegs[tup[i]] % 2
            for i in range(length - 1)
        ):
            continue
        yield tup


def reference_symmetry_witness(t, max_arity):
    """The graded symmetry of the operations E(M(s1)...M(sk)) of arities 2
    to max_arity, tuple by tuple and adjacent swap by adjacent swap, each
    value computed afresh; the first failure rendered as string_brackets
    renders it, or None."""
    ss = t.string_space

    def op(names):
        acc = t.mark.get(names[0], {})
        for s in names[1:]:
            acc = t.mult(acc, t.mark.get(s, {}))
        return apply_table(t.erase.get, acc)

    for k in range(2, max_arity + 1):
        for tup in itertools.product(ss.names, repeat=k):
            for p in range(k - 1):
                swapped = tup[:p] + (tup[p + 1], tup[p]) + tup[p + 2:]
                sign = ksign((ss.degree(tup[p]) + 1) * (ss.degree(tup[p + 1]) + 1))
                lhs, rhs = op(swapped), add_into({}, op(tup), sign)
                if lhs != rhs:
                    return (f"op({' '.join(swapped)}) = {ss.render(lhs)}, "
                            f"expected {ss.render(rhs)}")
    return None


def reference_parser():
    """The argparse parser of the command table: a subparser per row of
    _COMMANDS with that row's options, --out, and the row's handler."""
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
