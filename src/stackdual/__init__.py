"""stackdual: exact graded commutative algebra for dualizing modules of
cyclic-quotient curve singularities and embedded quotient-stack charts.

The names below are re-exported lazily (PEP 562): `stackdual.resolve`
imports `stackdual.complexes` on first use, so importing one module, such
as the command line's, does not compile the whole package."""

from importlib import import_module

_EXPORTS = {
    "poly": ("Bidegree", "GradedRing", "MonomialOrder", "Polynomial"),
    "gmodule": ("ModuleMap", "ModulePresentation", "RingMorphism",
                "hilbert_function", "hom_module", "invariant_part", "kernel",
                "minimalize", "restrict_along"),
    "groebner": ("GroebnerBasis", "buchberger", "normal_form"),
    "complexes": ("ChainComplex", "hom_complex", "homology", "koszul", "resolve"),
    "duality": ("CMReport", "DualityReport", "canonical_module",
                "cm_gorenstein_check", "compare_modules", "ext_dualizing",
                "finite_shriek", "lci_dualizing", "pushforward_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
