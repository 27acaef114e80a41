"""stackdual: exact graded commutative algebra for dualizing modules of
cyclic-quotient curve singularities and embedded quotient-stack charts."""

from .poly import Bidegree, GradedRing, MonomialOrder, Polynomial
from .gmodule import (ModuleMap, ModulePresentation, RingMorphism,
                      hilbert_function, hom_module, invariant_part, kernel,
                      minimalize, restrict_along)
from .groebner import GroebnerBasis, buchberger, normal_form
from .complexes import ChainComplex, hom_complex, homology, koszul, resolve
from .duality import (CMReport, DualityReport, canonical_module,
                      cm_gorenstein_check, compare_modules, ext_dualizing,
                      finite_shriek, lci_dualizing, pushforward_check)

__version__ = "0.1.0"
