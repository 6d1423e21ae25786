"""Seeded inputs for the loopspace benchmark.

Every input is built from the data in this file, not from the test
fixtures.  A seed changes an input only by an isomorphism: each model
generator and each structure-table basis element is rescaled by a random
nonzero rational, which leaves every rank, Betti number and verdict as it
was.  The seed also draws the Goldman words, which are new inputs.

Self-test, from the repository root:

    python3 bench/gen.py

It checks that the circle generator reproduces tests/data/circle.struct
at windings 0..4 (and the torus generator tests/data/torus_bracket.struct
on the box [0,2]x[0,2]), table for table, and that rescaled models have
the Betti tables of the unscaled ones.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

# name -> (generators as (name, degree), differentials as
# {generator: [(coefficient, ((generator, exponent), ...)), ...]})
MODELS = {
    "s2": ([("x", 2), ("y", 3)], {"y": [(1, (("x", 2),))]}),
    "s2xs3": ([("x", 2), ("y", 3), ("z", 3)], {"y": [(1, (("x", 2),))]}),
    "cp2": ([("x", 2), ("y", 5)], {"y": [(1, (("x", 3),))]}),
}

GENUS2_GENERATORS = ("a", "b", "c", "d")
GENUS2_FAT = "generators a b c d\ncyclic-order a b a^- b^- c d c^- d^-\n"


def scale_factors(rng, names):
    """A random nonzero rational +-p/q, 1 <= p, q <= 9, for each name."""
    return {
        n: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for n in names
    }


def _signed_sum(terms):
    """Render [(coefficient, body)] as 'c*body + c*body - ...'."""
    parts = []
    for c, body in terms:
        mag = f"{abs(c)}*{body}" if body else f"{abs(c)}"
        if not parts:
            parts.append(mag if c > 0 else "-" + mag)
        else:
            parts.append(("+ " if c > 0 else "- ") + mag)
    return " ".join(parts) if parts else "0"


def model_text(name, rng=None):
    """Model file for MODELS[name]; with an rng, generator g is replaced
    by lambda_g * g, so d(lambda_y y) = lambda_y / prod(lambda_g^e) * ..."""
    gens, diffs = MODELS[name]
    lam = scale_factors(rng, [g for g, _ in gens]) if rng else {}
    lines = [f"gen {g} {deg}" for g, deg in gens]
    for target, terms in diffs.items():
        scaled = []
        for c, mono in terms:
            c = Fraction(c) * lam.get(target, 1)
            for g, e in mono:
                c /= lam.get(g, 1) ** e
            scaled.append((c, "*".join(f"{g}^{e}" for g, e in mono)))
        lines.append(f"d {target} = {_signed_sum(scaled)}")
    return "".join(line + "\n" for line in lines)


class Table:
    """A structure table as data: graded basis and sbasis, and operator
    entries (kind, argument names, {basis name: coefficient})."""

    def __init__(self, basis, sbasis, entries):
        self.basis = basis
        self.sbasis = sbasis
        self.entries = entries

    def text(self, rng=None):
        """Structure file; with an rng, basis element e is replaced by
        lambda_e * e, so op(a, b) = c*k becomes c * lambda_a lambda_b / lambda_k."""
        names = [n for n, _ in self.basis + self.sbasis]
        lam = scale_factors(rng, names) if rng else {}
        lines = [f"basis {n} {d}" for n, d in self.basis]
        lines += [f"sbasis {n} {d}" for n, d in self.sbasis]
        for kind, args, combo in self.entries:
            factor = Fraction(1)
            for a in args:
                factor *= lam.get(a, 1)
            terms = [(factor * c / lam.get(k, 1), k) for k, c in combo.items()]
            lines.append(f"{kind} {' '.join(args)} = {_signed_sum(terms)}")
        return "".join(line + "\n" for line in lines)


def circle_table(n):
    """Loops on the circle, windings 0..n, higher windings set to zero.

    T_i (degree 0) times T_j or A_j multiplies windings; delta and mark
    carry winding i to i times T_i; the bracket is the deviation of delta
    from a derivation: [T_i, A_j] = i T_{i+j}, [A_i, T_j] = -j T_{i+j},
    [A_i, A_j] = (i - j) A_{i+j}.
    """
    w = range(n + 1)
    basis = [(f"T_{i}", 0) for i in w] + [(f"A_{i}", -1) for i in w]
    sbasis = [(f"S_{i}", -1) for i in w]
    entries = []
    for i in w:
        for j in range(n + 1 - i):
            entries.append(("product", (f"T_{i}", f"T_{j}"), {f"T_{i + j}": 1}))
    for i in w:
        for j in range(n + 1 - i):
            entries.append(("product", (f"T_{i}", f"A_{j}"), {f"A_{i + j}": 1}))
            entries.append(("product", (f"A_{i}", f"T_{j}"), {f"A_{i + j}": 1}))
    entries += [("delta", (f"A_{i}",), {f"T_{i}": i}) for i in w if i]
    entries += [("E", (f"A_{i}",), {f"S_{i}": 1}) for i in w]
    entries += [("M", (f"S_{i}",), {f"T_{i}": i}) for i in w if i]
    for i in w:
        for j in range(n + 1 - i):
            k = i + j
            for args, combo in (
                ((f"T_{i}", f"A_{j}"), {f"T_{k}": i}),
                ((f"A_{i}", f"T_{j}"), {f"T_{k}": -j}),
                ((f"A_{i}", f"A_{j}"), {f"A_{k}": i - j}),
            ):
                if all(combo.values()):
                    entries.append(("bracket", args, combo))
    return Table(basis, sbasis, entries)


def torus_table(k):
    """Loops on the 2-torus with winding vectors in the box [0,k]x[0,k].

    X_u (degree -1) times X_v is det(u, v) Y_{u+v}; delta, erase and mark
    run Y_u -> X_u, Y_u -> S_u and S_u -> X_u.
    """
    box = [(p, q) for p in range(k + 1) for q in range(k + 1)]
    basis = [(f"X_{p}_{q}", -1) for p, q in box] + [(f"Y_{p}_{q}", -2) for p, q in box]
    sbasis = [(f"S_{p}_{q}", -2) for p, q in box]
    entries = []
    for u in box:
        for v in box:
            s = (u[0] + v[0], u[1] + v[1])
            det = u[0] * v[1] - u[1] * v[0]
            if det and s[0] <= k and s[1] <= k:
                entries.append(
                    ("product", (f"X_{u[0]}_{u[1]}", f"X_{v[0]}_{v[1]}"),
                     {f"Y_{s[0]}_{s[1]}": det})
                )
    for p, q in box:
        entries.append(("delta", (f"Y_{p}_{q}",), {f"X_{p}_{q}": 1}))
    for p, q in box:
        entries.append(("E", (f"Y_{p}_{q}",), {f"S_{p}_{q}": 1}))
    for p, q in box:
        entries.append(("M", (f"S_{p}_{q}",), {f"X_{p}_{q}": 1}))
    return Table(basis, sbasis, entries)


def random_word(rng, length):
    """Uniformly drawn cyclically reduced word of the given length on the
    genus-2 generators, as the space-separated tokens the CLI reads (x or
    x^- for an inverse)."""
    alphabet = list(GENUS2_GENERATORS) + [g + "^-" for g in GENUS2_GENERATORS]

    def inverse(t):
        return t[:-2] if t.endswith("^-") else t + "^-"

    while True:
        word = []
        for _ in range(length):
            word.append(rng.choice([t for t in alphabet if not word or t != inverse(word[-1])]))
        if length < 2 or word[0] != inverse(word[-1]):
            return " ".join(word)


def _self_test(root):
    sys.path.insert(0, str(root / "src"))
    from loopspace.homology import betti_table
    from loopspace.models import equivariant_model, loop_model, parse_model
    from loopspace.structures import parse_structure_file

    def tables(t):
        return (
            t.space.names, [t.space.degree(n) for n in t.space.names],
            t.string_space.names, [t.string_space.degree(n) for n in t.string_space.names],
            t.product, t.bracket, t.delta, t.erase, t.mark,
        )

    data = root / "tests" / "data"
    for table, fixture in ((circle_table(4), "circle.struct"), (torus_table(2), "torus_bracket.struct")):
        want = tables(parse_structure_file((data / fixture).read_text(encoding="utf-8")))
        if tables(parse_structure_file(table.text())) != want:
            raise SystemExit(f"self-test FAIL: generated table differs from {fixture}")

    def bettis(text, cutoff=10):
        lm = loop_model(parse_model(text))
        return (
            betti_table(lm.complex, cutoff).values,
            betti_table(equivariant_model(lm).complex, cutoff).values,
        )

    for name in MODELS:
        plain = bettis(model_text(name))
        for seed in (1, 2):
            if bettis(model_text(name, random.Random(seed))) != plain:
                raise SystemExit(f"self-test FAIL: rescaled {name} (seed {seed}) changes Betti numbers")
    print("self-test: pass")


if __name__ == "__main__":
    _self_test(Path(__file__).resolve().parent.parent)
