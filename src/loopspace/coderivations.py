"""Coderivations of the cofree cocommutative coalgebra on a shifted graded
basis.

Basis elements are indices into a table of shifted degrees (one more than
the underlying degree).  A word is a wedge monomial stored as a sorted
index tuple; indices of odd shifted degree square to zero, even ones may
repeat.  A family of symmetric multilinear operations, one component per
sorted input tuple, extends uniquely to a coderivation; the extension acts
on a word by picking every subset of the stated arity, pulling it to the
front with the Koszul sign of the unshuffle, and wedging the value back
onto the untouched letters.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .checks import BRACKET_LAWS, CheckReport, Tabulation, add_into, apply_map, integral, ksign

__all__ = [
    "wedge_sort",
    "wedge_words",
    "render_word",
    "front_sign",
    "CoderivationRep",
    "coproduct",
    "coderivation_relations",
    "jacobi_coderivation_equiv",
]


def wedge_sort(seq, sdegs):
    """Sort indices into canonical order, tracking the Koszul sign.

    Returns (word, sign), or (None, 0) when an odd index repeats.
    """
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            if (sdegs[items[j - 1]] * sdegs[items[j]]) % 2:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
        # an equal letter in the sorted prefix ends next to the inserted one
        if j and items[j - 1] == items[j] and sdegs[items[j]] % 2:
            return None, 0
    return tuple(items), sign


def wedge_words(sdegs, max_len):
    """Every canonical word of length up to max_len over the indices of
    sdegs, shortest first, each length in lexicographic order.  Each
    length extends the last one's words by a final letter, so once a
    length has no word no longer one has either."""
    words = [()]
    for _ in range(max_len):
        yield from words
        words = [w + (x,) for w in words for x in range(w[-1] if w else 0, len(sdegs))
                 if not (w and x == w[-1] and sdegs[x] % 2)]
    yield from words


def front_sign(word, positions, sdegs):
    """Koszul sign of unshuffling the letters at the given positions to the
    front of the word, both blocks keeping their internal order."""
    chosen = set(positions)
    sign = 1
    for q in positions:
        for p in range(q):
            if p not in chosen and (sdegs[word[p]] * sdegs[word[q]]) % 2:
                sign = -sign
    return sign


class CoderivationRep:
    """Arity-k symmetric operation given on sorted input tuples.

    comps maps a sorted index tuple to a dict index -> coefficient: exact
    Fractions as built, ints in the scaled copies a relation check makes.
    Values on unsorted tuples follow from the Koszul sign of sorting.
    """

    def __init__(self, sdegs, k, comps):
        self.sdegs = tuple(sdegs)
        self.k = k
        self.comps = comps

    @classmethod
    def from_operation(cls, space, k, values):
        """The arity-k component, on the degrees of space shifted by one, of
        the operation whose nonzero name-keyed values on index tuples are
        values: the canonical words among its keys, in their order."""
        sdegs = tuple(space.degree(a) + 1 for a in space.names)
        index = {a: i for i, a in enumerate(space.names)}
        return cls(sdegs, k, {word: {index[x]: c for x, c in combo.items()}
                              for word, combo in values.items()
                              if wedge_sort(word, sdegs)[0] == word})

    def apply_word(self, word):
        """Coderivation extension on a single canonical word."""
        n = len(word)
        out = {}
        if n < self.k:
            return out
        sdegs = self.sdegs
        for positions in itertools.combinations(range(n), self.k):
            # the letters of a canonical word at increasing positions are
            # themselves a canonical word, so they index comps directly
            val = self.comps.get(tuple(word[p] for p in positions))
            if not val:
                continue
            sgn = front_sign(word, positions, sdegs)
            chosen = set(positions)
            rest = tuple(word[p] for p in range(n) if p not in chosen)
            for b, c in val.items():
                w2, s2 = wedge_sort((b,) + rest, sdegs)
                if w2 is not None:
                    add_into(out, {w2: c}, sgn * s2)
        return out


def coproduct(word, sdegs):
    """Unshuffle coproduct: sum over splittings of the letter positions
    into a front and a back block, with the unshuffle Koszul sign."""
    # Splittings of a prefix of the word, extended one letter at a time: a
    # letter joining the front block passes every letter already in the
    # back block.
    splits = [((), (), 1, 0)]  # front, back, sign, parity of back
    for x in word:
        odd = sdegs[x] % 2
        splits = [
            split
            for front, back, sign, back_odd in splits
            for split in (
                (front + (x,), back, -sign if odd and back_odd else sign, back_odd),
                (front, back + (x,), sign, back_odd ^ odd),
            )
        ]
    out = {}
    for front, back, sign, _ in splits:
        out[front, back] = out.get((front, back), 0) + sign
    return {key: c for key, c in out.items() if c}


def render_word(word, names):
    """A word as its letters' names, space-separated; the empty word as 1."""
    if not word:
        return "1"
    return " ".join(names[i] for i in word)


def _render_combo(combo, names, unit):
    """A nonzero combo divided by unit, exactly."""
    parts = []
    for word in sorted(combo):
        c = Fraction(combo[word], unit)
        parts.append(f"{c}*({render_word(word, names)})")
    return " + ".join(parts)


def _square_label(k, word_len):
    return f"m{k} squares to zero on words up to length {word_len}"


def _residue_witness(words, residue, names, unit):
    """The first word with a nonzero residue, rendered divided by unit;
    None if none."""
    for word in words:
        acc = residue(word)
        if acc:
            return (f"word {render_word(word, names)}: "
                    f"residue {_render_combo(acc, names, unit)}")
    return None


def coderivation_relations(reps, word_len, names):
    """Quadratic relations between the arity components, on all canonical
    words up to the given length, as a CheckReport; names renders basis
    indices.  Every relation is evaluated even after a failure, so the
    caller sees the full pattern.

    The total coderivation is checked for each arity on its own and, when
    there are several, for all of them together.

    The relations run on ints: every component is multiplied by one
    scale D, the least common multiple of all their denominators.  With
    one D for every arity, any sum of composites m_a after m_b is D^2
    times its exact value and renders divided by D^2; a coproduct side is
    D times its own.
    """
    ks = sorted(reps)
    if not ks:
        raise ValueError("no coderivation components given")
    sdegs = reps[ks[0]].sdegs
    for k in ks:
        if reps[k].sdegs != sdegs:
            raise ValueError("components disagree on shifted degrees")
    comps, scale = integral([reps[k].comps for k in ks])
    reps = {k: CoderivationRep(sdegs, k, c) for k, c in zip(ks, comps)}
    words = list(wedge_words(sdegs, word_len))
    upto = f"on words up to length {word_len}"
    # Each component's image of each word is computed once; the memos are
    # bounded by the words up to word_len and are dropped when this call
    # returns.  Coproducts are recomputed instead of kept: on nine letters
    # with words up to length 6 a memo of them takes 2.6 MB, six times the
    # images.
    image = {k: functools.cache(reps[k].apply_word) for k in ks}

    def residue(pairs):
        """The witness of the sum of outer after inner over the pairs."""
        def of(word):
            acc = {}
            for outer, inner in pairs:
                apply_map(image[outer], image[inner](word), acc)
            return acc
        return _residue_witness(words, of, names, scale ** 2)

    def total_label(chosen):
        return (f"total coderivation for arities {{{','.join(map(str, chosen))}}} "
                f"squares to zero {upto}")

    rep = CheckReport()
    squares = {k: residue([(k, k)]) for k in ks}
    for k in ks:
        rep.add(_square_label(k, word_len), squares[k])
    for a, b in itertools.combinations(ks, 2):
        rep.add(f"m{a} and m{b} anticommute {upto}", residue([(a, b), (b, a)]))
    # the total coderivation of one arity is that component composed with
    # itself, so its residue is the square's
    for k in ks:
        rep.add(total_label([k]), squares[k])
    if len(ks) > 1:
        rep.add(total_label(ks), residue(list(itertools.product(ks, repeat=2))))
    for k in ks:
        rep.add(f"m{k} is a coderivation for the unshuffle coproduct {upto}",
                _coproduct_witness(reps[k], image[k], words, names, scale))
    return rep


def _coproduct_witness(rep, image, words, names, scale):
    """The first word on which the coproduct of the image differs from
    the operation applied to either block of each split, with the first
    differing key; both sides render divided by scale.  None if none."""
    sdegs = rep.sdegs
    deg = sdegs.__getitem__
    for word in words:
        # without a k-letter subword in comps the extension vanishes on the
        # word and on both blocks of every split, so both sides are 0; a
        # word shorter than k has none, as in apply_word
        if len(word) < rep.k or not any(
                sub in rep.comps for sub in itertools.combinations(word, rep.k)):
            continue
        lhs = apply_map(lambda w2: coproduct(w2, sdegs), image(word))
        rhs = {}
        for (left, right), s in coproduct(word, sdegs).items():
            for w2, c in image(left).items():
                rhs[w2, right] = rhs.get((w2, right), 0) + s * c
            img = image(right)
            if img:
                # the operation passes the left block: a term costs the
                # left parity times the degree it adds to right
                lodd = sum(map(deg, left)) % 2
                rdeg = sum(map(deg, right))
                for w2, c in img.items():
                    sign = -s if lodd and (sum(map(deg, w2)) - rdeg) % 2 else s
                    rhs[left, w2] = rhs.get((left, w2), 0) + sign * c
        rhs = {key: c for key, c in rhs.items() if c}
        if lhs != rhs:
            l, r = min(key for key in lhs.keys() | rhs.keys()
                       if lhs.get(key, 0) != rhs.get(key, 0))
            return (
                f"word {render_word(word, names)} at "
                f"({render_word(l, names)} | {render_word(r, names)}): "
                f"lhs {Fraction(lhs.get((l, r), 0), scale)}, "
                f"rhs {Fraction(rhs.get((l, r), 0), scale)}"
            )
    return None


def jacobi_coderivation_equiv(space, bracket, word_len, relations=None):
    """Two renderings of the same condition: the bracket satisfies the
    graded Jacobi identity iff its shifted symmetric form, extended as a
    coderivation, squares to zero.  Returns a CheckReport with both
    verdicts and a line recording that they agree.

    space is the graded basis with unshifted degrees; bracket maps a name
    pair to a name-keyed combination.  The bracket must already be graded
    antisymmetric, else the symmetric form does not exist and a ValueError
    is raised.

    relations is the report of coderivation_relations, on the same names
    and word length, for the operations string_brackets derived with this
    bracket, when the caller has one.  The symmetric form is then that m2
    (the bracket is m2 times ksign(deg), and ksign(deg)^2 = 1), so a
    report with an m2 line lends its witness and the words are not walked
    again.
    """
    if word_len < 3:
        raise ValueError("need words of length at least 3 to see the Jacobi identity")
    antisymmetry, jacobi = BRACKET_LAWS
    tab = Tabulation(space, bracket=bracket, shift=0)
    if tab.witness(antisymmetry) is not None:
        raise ValueError(
            "bracket is not graded antisymmetric; "
            "its symmetric shifted form does not exist"
        )
    rep = CheckReport()
    direct = rep.add(jacobi, tab.witness(jacobi))
    known = dict(relations.lines) if relations is not None else {}
    label = _square_label(2, word_len)
    if label in known:
        square = known[label]
    else:
        # the symmetric form takes (a, b) to (-1)^|a| [a,b], here on the
        # tabulation's int rows, so tab.scale times the exact form
        index = {a: i for i, a in enumerate(space.names)}
        m2 = CoderivationRep.from_operation(space, 2, {
            (index[a], index[b]): add_into({}, ab, ksign(tab.deg[a]))
            for a, row in tab.br.items() for b, ab in row.items()})
        image = functools.cache(m2.apply_word)
        square = _residue_witness(wedge_words(m2.sdegs, word_len),
                                  lambda word: apply_map(image, image(word)), space.names,
                                  tab.scale ** 2)
    coderivation = rep.add(
        f"arity-2 coderivation squares to zero on words up to length {word_len}",
        square,
    )
    rep.agree("direct", direct, "coderivation", coderivation)
    return rep
