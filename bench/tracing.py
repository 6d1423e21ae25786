"""Spans and counters around loopspace's public functions, from outside.

``install()`` wraps the functions listed in TARGETS.  Modules import each
other's functions by name (homology imports matrix_rank, models imports
induced_map, cli imports goldman_bracket), so the wrapper replaces every
attribute of every loaded loopspace module that refers to the original;
methods are replaced on their class.

A span covers one call.  Its self time is its duration minus the time its
wrapped children took, wrapper cost included, so the cost of tracing a hot
child does not land in its parent.  Spans are summed per name in memory.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _matrix(tracer, name, args, result):
    rows = args[0]
    tracer.add(name + ".cells", len(rows) * len(rows[0]) if rows else 0)
    tracer.add(name + ".nnz", sum(1 for row in rows for v in row if v))


def _accepted(tracer, name, args, result):
    tracer.add(name + ".accepted", 1 if result else 0)


def _built(counter, size):
    # Slices and bases are memoised: count each object once, when built.
    def count(tracer, name, args, result):
        if tracer.first_seen(name, result):
            tracer.add(name + "." + counter, size(result))
    return count


def _bracket(tracer, name, args, result):
    pair = (args[0].letters, args[1].letters)
    tracer.add(name + ".repeats", 0 if tracer.first_seen(name, pair) else 1)
    tracer.add(name + ".terms", len(result))


def _letters(tracer, name, args, result):
    tracer.add(name + ".letters", len(args[2]))


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("linalg", "matrix_rank", "linalg.matrix_rank", _matrix),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "solve_coords", "linalg.solve_coords", None),
    ("linalg", "SpanTracker.add", "linalg.SpanTracker.add", _accepted),
    ("homology", "CochainComplex.slice", "homology.CochainComplex.slice",
     _built("nnz", lambda m: len(m.entries))),
    ("homology", "CochainComplex.cohomology", "homology.CochainComplex.cohomology", None),
    ("homology", "induced_map", "homology.induced_map", None),
    ("homology", "verify_chain_map", "homology.verify_chain_map", None),
    ("gca", "Derivation.__call__", "gca.Derivation.call", None),
    ("gca", "GradedAlgebra.basis", "gca.GradedAlgebra.basis", _built("monomials", len)),
    ("models", "load_model", "models.load_model", None),
    ("models", "loop_model", "models.loop_model", None),
    ("models", "equivariant_model", "models.equivariant_model", None),
    ("models", "gysin_report", "models.gysin_report", None),
    ("goldman", "goldman_bracket", "goldman.goldman_bracket", _bracket),
    ("goldman", "CyclicWord.__init__", "goldman.CyclicWord", _letters),
    ("structures", "check_bv", "structures.check_bv", None),
    ("structures", "check_gerstenhaber", "structures.check_gerstenhaber", None),
    ("structures", "StructureTable.mult", "structures.StructureTable.mult", None),
    ("structures", "StructureTable.delta_of", "structures.StructureTable.delta_of", None),
    ("structures", "load_structure_file", "structures.load_structure_file", None),
    ("coderivations", "CoderivationRep.apply_word", "coderivations.CoderivationRep.apply_word", None),
    ("coderivations", "coproduct", "coderivations.coproduct", None),
    ("coderivations", "coderivation_relations", "coderivations.coderivation_relations", None),
    ("coderivations", "jacobi_coderivation_equiv", "coderivations.jacobi_coderivation_equiv", None),
    ("cli", "main", "cli.main", None),
]

# Ratio metrics: name -> (numerator, denominator), both raw counts.
RATIOS = {
    "linalg.SpanTracker.add.accept_ratio": ("linalg.SpanTracker.add.accepted", "linalg.SpanTracker.add.calls"),
    "goldman.goldman_bracket.repeat_ratio": ("goldman.goldman_bracket.repeats", "goldman.goldman_bracket.calls"),
}


class Tracer:
    def __init__(self):
        self._stack = []  # time taken by wrapped children, per open span
        self._seen = {}
        self.counts = {}  # "<span>.calls", "<span>.self_s", "<span>.<counter>"

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def first_seen(self, name, key):
        seen = self._seen.setdefault(name, set())
        if isinstance(key, list):
            key = id(key)
        if key in seen:
            return False
        seen.add(key)
        return True

    def wrap(self, name, fn, count):
        stack = self._stack
        counts = self.counts
        calls, self_s = name + ".calls", name + ".self_s"
        counts[calls] = 0
        counts[self_s] = 0.0

        def traced(*args, **kwargs):
            enter = perf_counter()
            stack.append(0.0)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                children = stack.pop()
                counts[calls] += 1
                counts[self_s] += end - enter - children
                if done and count is not None:
                    count(self, name, args, result)
                if stack:
                    stack[-1] += perf_counter() - enter

        return traced


def install():
    """Wrap every target in the loaded loopspace package; returns the Tracer."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n == "loopspace" or n.startswith("loopspace.")]
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module("loopspace." + module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(name, owner.__dict__[method], count))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return tracer


def layer_metrics(counts):
    """Per-layer metrics from raw counts summed over the commands of a run."""
    out = dict(counts)
    for ratio, (num, den) in RATIOS.items():
        out[ratio] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return out
