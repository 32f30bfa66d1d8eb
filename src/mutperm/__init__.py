"""Computer algebra for free perm algebras and their (p,q)-mutations.

Submodules:

* ``perm``       -- the free perm algebra (canonical monomials, bracket)
* ``terms``      -- bracket/product terms, identity templates, parser
* ``mutation``   -- expansion, the spanning set B, mutation-element tests
* ``identities`` -- multilinear identity kernels and T-ideal consequences
* ``symmetric``  -- Young's seminormal form of S_n and per-λ ranks
* ``findim``     -- structure-constants algebras and their mutations
* ``speciality`` -- ideal components and the exceptional-image certificate
* ``linalg``     -- exact sparse rational linear algebra
"""

from .perm import Elt, bracket, commutator, word_elt
from .terms import TEMPLATES, Template, TermPoly, parse, render
from .mutation import (BSetElement, check_relations, enumerate_B, expand,
                       is_mutation_element, verify_basis_B)
from .identities import (consequence_span, expansion_matrix, identity_kernel,
                         magmatic_basis, new_identities, tideal_membership)
from .findim import (FiniteAlgebra, dump_algebra, evaluate, jacobi_test,
                     lie_admissible_criterion, load_algebra, mutation_algebra,
                     satisfies)
from .speciality import (IdealComponentRequest, cohn_check,
                         mutation_ideal_component, paper_instance,
                         perm_ideal_component)

__all__ = [
    "Elt", "bracket", "commutator", "word_elt",
    "TEMPLATES", "Template", "TermPoly", "parse", "render",
    "BSetElement", "check_relations", "enumerate_B", "expand",
    "is_mutation_element", "verify_basis_B",
    "consequence_span", "expansion_matrix", "identity_kernel",
    "magmatic_basis", "new_identities", "tideal_membership",
    "FiniteAlgebra", "dump_algebra", "evaluate", "jacobi_test",
    "lie_admissible_criterion", "load_algebra", "mutation_algebra",
    "satisfies",
    "IdealComponentRequest", "cohn_check", "mutation_ideal_component",
    "paper_instance", "perm_ideal_component",
]

__version__ = "0.1.0"
