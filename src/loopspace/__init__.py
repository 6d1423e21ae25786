"""Exact rational computations on free loop space models.

Subpackages cover: free graded-commutative algebras and derivations (gca),
sparse exact linear algebra (linalg), cochain complexes and induced maps
(homology), minimal models with their loop, based and circle-equivariant
extensions (models; the minimal, loop and equivariant ones are all a
Model), surface word brackets on ribbon graphs (goldman), the sparse
combinations, report and identities the checkers share (checks),
bracket/coproduct axiom checkers on finite structure tables (structures),
and coderivation calculus on cofree coalgebras (coderivations).
"""

from .gca import (
    AlgebraError,
    Derivation,
    ElementSyntaxError,
    GradedAlgebra,
    GradedElement,
)
from .models import Model, loop_model, based_complex, equivariant_model

__all__ = [
    "AlgebraError",
    "Derivation",
    "ElementSyntaxError",
    "GradedAlgebra",
    "GradedElement",
    "Model",
    "loop_model",
    "based_complex",
    "equivariant_model",
]
