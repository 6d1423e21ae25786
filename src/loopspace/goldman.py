"""Goldman bracket on free homotopy classes of loops on an oriented surface.

The surface is a thickened one-vertex graph: a disk with one band per
generator, attached in the cyclic order read counterclockwise around the
disk.  Free homotopy classes are cyclically reduced cyclic words in the
generators.  The bracket of two classes is a signed sum over basepoint
pairs: each transversal crossing of taut representatives contributes the
concatenated class with the sign of the crossing.  On one surface a word
is a rank string and a class is its key: words are reduced, rotated and
bracketed as strings, the bracket, its bilinear extension and the Jacobi
fuzz add {key: coefficient} combinations, which format_combo prints, and
int letters and CyclicWords appear only where a word enters or leaves.

Crossing detection works on the four rays leaving a merged basepoint (both
words forward and backward).  The directions of rays that leave along the
same band are compared where the rays diverge; the counterclockwise order
at the divergence vertex, read against the dart pointing back along the
shared path, equals the order of the rays around the basepoint.  A pair of
strands that share a run of bands would be detected once per shared vertex,
so pairs whose overlap extends backward are skipped: every geometric
crossing is counted exactly once, at the visit where the overlap starts.
That skip also covers words that run along the same periodic line, which
can be made disjoint and contribute nothing.  Save for walks along shared
runs of two or more letters, a visit depends only on the letters on both
sides of each basepoint and the next letter of each word, so the surface
keeps, built on first use, one row of outcomes per such pair of w, read
for all of v's positions with one translate, and one turn row per pair of
consecutive letters, the side of every letter at the vertex: the one place
the counterclockwise test is written.  A bracket adds its terms into its
caller's combination.
"""

from __future__ import annotations

import random

from .checks import NAME_RE, InputError, LineError, content_lines, read_input

__all__ = [
    "FatGraphError",
    "FatGraphFileError",
    "WordError",
    "FatGraph",
    "parse_fat_graph",
    "load_fat_graph",
    "CyclicWord",
    "goldman_bracket",
    "bracket_combo",
    "random_reduced_cyclic_word",
    "jacobi_fuzz",
    "format_combo",
]


class FatGraphError(InputError):
    """Surface description rejected."""


class FatGraphFileError(FatGraphError, LineError):
    """Surface file rejected; carries the offending line number."""


class WordError(InputError):
    """Word uses letters the surface does not have."""


_INV_SUFFIX = "^-"


class FatGraph:
    """One-vertex ribbon graph: generator names plus the counterclockwise
    cyclic order of the 2n half-edges around the vertex.

    Letters are nonzero ints: generator k (0-based) is k+1, its inverse
    -(k+1).  ``rank`` maps each letter to the one-character string whose
    code point is the position of its token in sorted order, so joined
    ranks compare like token sequences; words are stored so.  A rank's
    token is ``tok``, its letter ``letter_of``, its inverse's rank ``inv``
    (``inv_table`` for ``str.translate``), and the position of its
    half-edge in the cyclic order ``at``; ``rows`` and ``turns`` keep
    _crossing_row's and _turn_row's.
    """

    def __init__(self, names, order):
        self.names = names = _generator_names(names)
        order = tuple(order)
        expected = {s * k for k in range(1, len(names) + 1) for s in (1, -1)}
        seen = set()
        for letter in order:
            if letter not in expected:
                raise FatGraphError(f"unknown half-edge {letter!r} in cyclic order")
            if letter in seen:
                raise FatGraphError(
                    f"duplicate half-edge {self.token(letter)} in cyclic order"
                )
            seen.add(letter)
        missing = sorted(expected - seen)
        if missing:
            toks = ", ".join(self.token(x) for x in missing)
            raise FatGraphError(f"cyclic order is missing half-edges: {toks}")
        self.order = order
        self.size = len(order)
        self.rank = {x: chr(k) for k, x in enumerate(sorted(order, key=self.token))}
        self.tok = {r: self.token(x) for x, r in self.rank.items()}
        self.letter_of = {r: x for x, r in self.rank.items()}
        self.inv = {r: self.rank[-x] for x, r in self.rank.items()}
        self.inv_table = str.maketrans(self.inv)
        self.at = {self.rank[x]: k for k, x in enumerate(order)}
        self.rows = {}
        self.turns = {}

    def token(self, letter):
        name = self.names[abs(letter) - 1]
        return name if letter > 0 else name + _INV_SUFFIX

    def letter(self, token):
        return _letter(self.names, token)

    def word(self, text):
        return CyclicWord(self, tuple(map(self.letter, text.split())))


def _generator_names(names):
    """names as a tuple, once they are checked to name the generators of a
    surface."""
    names = tuple(names)
    if not names:
        raise FatGraphError("surface needs at least one generator")
    for n in names:
        if not NAME_RE.fullmatch(n):
            raise FatGraphError(f"bad generator name {n!r}")
    if len(set(names)) != len(names):
        raise FatGraphError("duplicate generator name")
    return names


def _letter(names, token):
    inv = token.endswith(_INV_SUFFIX)
    name = token[: -len(_INV_SUFFIX)] if inv else token
    try:
        k = names.index(name) + 1
    except ValueError:
        raise WordError(f"unknown generator {name!r}") from None
    return -k if inv else k


def parse_fat_graph(text):
    """The FatGraph of a surface file: one ``generators`` line and one
    ``cyclic-order`` line; ``#`` starts a comment.  An error in either
    line names it."""
    lines = {}
    for lineno, line in content_lines(text):
        kind, *fields = line.split()
        if kind not in ("generators", "cyclic-order"):
            raise FatGraphFileError(lineno, f"unrecognized declaration {kind!r}")
        if kind in lines:
            raise FatGraphFileError(lineno, f"second {kind} line")
        if kind == "generators" and not fields:
            raise FatGraphFileError(lineno, "empty generators line")
        lines[kind] = lineno, fields
    for kind in ("generators", "cyclic-order"):
        if kind not in lines:
            raise FatGraphError(f"missing {kind} line")
    lineno, names = lines["generators"]
    try:
        names = _generator_names(names)
        lineno, tokens = lines["cyclic-order"]
        return FatGraph(names, [_letter(names, tok) for tok in tokens])
    except (FatGraphError, WordError) as e:
        raise FatGraphFileError(lineno, str(e)) from None


def load_fat_graph(path):
    return parse_fat_graph(read_input(path))


class CyclicWord:
    """Cyclically reduced cyclic word in canonical rotation.

    ``key`` is the word's rank string (FatGraph.rank) in the rotation that
    is lexicographically least, which is the rotation whose token sequence
    is least.  Equality compares keys and then surfaces; the hash is the
    key's, which the str caches.
    """

    __slots__ = ("graph", "key")

    def __init__(self, graph, letters):
        self.graph = graph
        self.key = _least_rotation(_reduce(graph, "".join(map(graph.rank.__getitem__, letters))))

    @property
    def letters(self):
        return tuple(map(self.graph.letter_of.__getitem__, self.key))

    def tokens(self):
        return tuple(map(self.graph.tok.__getitem__, self.key))

    def __len__(self):
        return len(self.key)

    def __eq__(self, other):
        return (
            isinstance(other, CyclicWord)
            and self.key == other.key
            and _same_surface(self.graph, other.graph)
        )

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        return " ".join(self.tokens()) or "1"

    def __repr__(self):
        return f"CyclicWord({str(self)!r})"


def _wrap(graph, key):
    """The word with an already canonical key, without reducing it again."""
    word = object.__new__(CyclicWord)
    word.graph = graph
    word.key = key
    return word


def _same_surface(g, h):
    return g is h or (g.order == h.order and g.names == h.names)


def _reduce(graph, word):
    """A rank string freely reduced, then reduced across the wraparound."""
    inv = graph.inv
    stack = []
    for r in word:
        if stack and stack[-1] == inv[r]:
            stack.pop()
        else:
            stack.append(r)
    while len(stack) >= 2 and stack[0] == inv[stack[-1]]:
        stack = stack[1:-1]
    return "".join(stack)


def _least_rotation(key, low=None):
    """The least rotation of a string; low, if given, is its least
    character.  Only positions holding that character can start it; their
    rotations are compared as slices of the doubled string, in C: quadratic
    for a power of one letter, yet faster than Booth's or Duval's linear
    loop in Python on words of a few hundred letters."""
    if not key:
        return key
    n = len(key)
    twice = key + key
    low = low or min(key)
    r = key.index(low)
    least = twice[r:r + n]
    while True:
        r = key.find(low, r + 1)
        if r < 0:
            return least
        rotation = twice[r:r + n]
        if rotation < least:
            least = rotation


def _turn_row(graph, prev, x):
    """'+' or '-' per rank y: whether y lies counterclockwise of x at the
    vertex, read against the dart pointing back along prev; kept in
    graph.turns under prev + x."""
    size, at = graph.size, graph.at
    pa, side = at[x], (at[graph.inv[prev]] - at[x]) % size
    row = graph.turns[prev + x] = "".join(
        "+" if (at[chr(y)] - pa) % size < side else "-" for y in range(size))
    return row


def _pair_order(graph, w1, i1, w2, i2, limit):
    """Counterclockwise order of the rays reading rank strings w1 from i1
    and w2 from i2, cyclically, which share their first letter: read at the
    vertex where they diverge against the dart pointing back along the
    shared path.  Returns w2's side, '+' or '-', and k, the shared length."""
    n1, n2 = len(w1), len(w2)
    k = 1
    while w1[(i1 + k) % n1] == w2[(i2 + k) % n2]:
        k += 1
        if k > limit:
            raise FatGraphError("rays fail to diverge; words are not reduced")
    prev, x = w1[(i1 + k - 1) % n1], w1[(i1 + k) % n1]
    turn = graph.turns.get(prev + x) or _turn_row(graph, prev, x)
    return turn[ord(w2[(i2 + k) % n2])], k


def goldman_bracket(w, v):
    """Bracket of two classes as a mapping class -> integer coefficient."""
    graph = w.graph
    if not _same_surface(graph, v.graph):
        raise WordError("words live on different surfaces")
    return {_wrap(graph, term): c for term, c in _bracket(graph, w.key, v.key, {}, 1).items()}


def _pair_codes(graph, key):
    """Per position of a key, its forward and backward letters f, b as size*f + b."""
    size = graph.size
    backs = (key[-1:] + key[:-1]).translate(graph.inv_table)
    return "".join([chr(size * ord(f) + ord(b)) for f, b in zip(key, backs)])


def _crossing_row(graph, fa, ba):
    """Outcomes of the visits from a position of w whose forward and
    backward letters are fa and ba, one per pair code (fb, bb) of v's
    position; kept in graph.rows under fa + ba.
    '.': no term, as the overlap extends backward (a crossing is counted
    where the overlap starts) or fb and bb lie on one side of the chord
    fa-ba.  '+', '-': a term of that sign.  'F', 'f' where fb is fa and 'B',
    'b' where bb is: the side of that ray is read where the rays part, and
    there is a term where it lies opposite the other, upper case where the
    term's sign is +1.  No reduced word has a pair with fb == bb."""
    size, prev = graph.size, graph.inv[ba]
    turn = graph.turns.get(prev + fa) or _turn_row(graph, prev, fa)
    cells = []
    for fb, bb in (map(chr, divmod(c, size)) for c in range(size * size)):
        if ba == bb or ba == fb:
            cells.append(".")
        elif fa == fb:
            cells.append("F" if turn[ord(bb)] == "-" else "f")
        elif fa == bb:
            cells.append("B" if turn[ord(fb)] == "+" else "b")
        else:
            o1, o2 = turn[ord(fb)], turn[ord(bb)]
            cells.append("." if o1 == o2 else o1)
    row = graph.rows[fa + ba] = "".join(cells)
    return row


def _bracket(graph, a, b, acc, scale):
    """Adds scale * [a, b], for the keys of two classes of graph, into acc,
    {key: coefficient} with no zero coefficient; returns acc."""
    if not scale:
        return acc
    m, n = len(a), len(b)
    # the ray along v backward from position j reads ib forward from n - j
    ib = b[::-1].translate(graph.inv_table)
    codes = _pair_codes(graph, b)
    backs = (a[-1:] + a[:-1]).translate(graph.inv_table)
    rows, turns, get = graph.rows, graph.turns, acc.get
    limit = 2 * (m + n) + 4
    short = min(m, n)
    low = min(a + b, default="")
    aa, bb = a + a, b + b
    for i, (fa, ba) in enumerate(zip(a, backs)):
        row = rows.get(fa + ba) or _crossing_row(graph, fa, ba)
        # rays along w and v that part after one letter are placed by a
        # turn row; only longer shared runs are walked by _pair_order
        nxt = aa[i + 1]
        turn = turns.get(fa + nxt) or _turn_row(graph, fa, nxt)
        for j, cell in enumerate(codes.translate(row)):
            if cell == ".":
                continue
            up = cell in "+FB"
            k = 0
            if cell in "Ff":
                y = bb[j + 1]
                side = turn[ord(y)] if y != nxt else _pair_order(graph, a, i, b, j, limit)[0]
                if (side == "+") != up:
                    continue
            elif cell in "Bb":
                y = ib[(n - j + 1) % n]
                side, k = ((turn[ord(y)], 1) if y != nxt
                           else _pair_order(graph, a, i, ib, n - j, limit))
                if (side == "+") == up:
                    continue
            # v's backward ray runs along w for k letters, which cancel where v
            # ends and w starts (nothing cancels where w ends, as ba != fb): the
            # cut term is reduced unless k spans a word; an uncut one holds low
            if k < short:
                term = _least_rotation(aa[i + k:i + m] + bb[j:j + n - k], None if k else low)
            else:
                term = _least_rotation(_reduce(graph, aa[i:i + m] + bb[j:j + n]))
            c = get(term, 0) + (scale if up else -scale)
            if c:
                acc[term] = c
            else:
                del acc[term]
    return acc


def bracket_combo(graph, a, b, acc=None, scale=1):
    """acc += scale * [a, b], in place, for integer combinations a and b of
    the keys of graph's classes: the bracket's bilinear extension; returns
    acc, a new dict when acc is None."""
    acc = {} if acc is None else acc
    for ka, ca in a.items():
        for kb, cb in b.items():
            _bracket(graph, ka, kb, acc, scale * ca * cb)
    return acc


def format_combo(graph, combo):
    """Iterator of ``coefficient<TAB>word`` lines of a {key: coefficient}
    combination on graph, in key order, each word read through graph.tok."""
    tok = graph.tok.__getitem__
    return (f"{combo[key]}\t{' '.join(map(tok, key)) or '1'}\n" for key in sorted(combo))


def random_reduced_cyclic_word(graph, rng, max_len):
    """Uniform-ish random cyclically reduced word of length 1..max_len;
    deterministic for a given rng state."""
    n_gens = len(graph.names)
    alphabet = list(range(-n_gens, 0)) + list(range(1, n_gens + 1))
    n = rng.randint(1, max_len)
    letters = []
    for k in range(n):
        banned = {-letters[-1]} if k else set()
        if 0 < k == n - 1:
            banned.add(-letters[0])
        letters.append(rng.choice([x for x in alphabet if x not in banned]))
    return CyclicWord(graph, tuple(letters))


def jacobi_fuzz(graph, trials=200, max_len=6, seed=1):
    """Random Jacobi identity checks [u,[v,w]] = [[u,v],w] + [v,[u,w]].

    Each trial draws its words from random.Random(f"{seed}:{trial}"), so any
    counterexample is reproducible from (seed, trial) alone.  Returns None
    when every trial balances, else the first failure's trial, words u, v,
    w, and residual, a {key: coefficient} combination.
    """
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        u, v, w = (random_reduced_cyclic_word(graph, rng, max_len) for _ in range(3))
        a, b, c = u.key, v.key, w.key
        residual = bracket_combo(graph, {a: 1}, _bracket(graph, b, c, {}, 1))
        bracket_combo(graph, _bracket(graph, a, b, {}, 1), {c: 1}, residual, -1)
        bracket_combo(graph, {b: 1}, _bracket(graph, a, c, {}, 1), residual, -1)
        if residual:
            return {"trial": t, "u": u, "v": v, "w": w, "residual": residual}
    return None
