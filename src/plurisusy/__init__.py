"""Exact-arithmetic toolkit for pluri-canonical models of split super
Riemann surfaces over hyperelliptic curves."""

from .curve import (CurvePoint, Divisor, FunctionFieldElement,
                    HyperellipticCurve, UnrepresentableSupportError,
                    standard_curve)
from .riemann_roch import (DivisorClass, ThetaCharacteristic, canonical_class,
                           class_eq, h0, h1, is_principal,
                           parity_representatives, rr_space, semi_reduce,
                           theta_characteristics)
from .supercurve import (RankPair, SplitSupercurve, berezinian_bundle,
                         deformation_injectivity_dims, dual_supercurve,
                         is_autodual, make_split_supercurve, moduli_dimension,
                         verify_berezinian_transition)
from .pluricanonical import (PluriCanonicalModel, SuperPointFamily,
                             build_model, canonical_nonembedding_demo,
                             criterion_local_freeness, minimal_nu,
                             pluri_canonical_rank, pushforward_over_superpoint,
                             random_deformation, threshold_table,
                             very_ample_check, verify_embedding)

__version__ = "0.1.0"

# The Grassmann algebra is loaded on first access to its names (PEP 562):
# only check-superconformal and the transition check use it, and compiling
# it adds about a sixth to the package's import time where no bytecode
# cache is written.
_GRADED_ALGEBRA = (
    "GrassmannAlgebra", "GrassmannElement", "SuperMatrix", "VectorFieldSC",
    "berezinian", "bracket", "check_superconformal", "grassmann_mul",
    "superconformal_derivation", "susy_generator_square",
)


def __getattr__(name):
    if name in _GRADED_ALGEBRA:
        from . import graded_algebra
        return getattr(graded_algebra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_GRADED_ALGEBRA,
    "CurvePoint", "Divisor", "FunctionFieldElement", "HyperellipticCurve",
    "UnrepresentableSupportError", "standard_curve",
    "DivisorClass", "ThetaCharacteristic", "canonical_class", "class_eq",
    "h0", "h1", "is_principal", "parity_representatives",
    "rr_space", "semi_reduce", "theta_characteristics",
    "RankPair", "SplitSupercurve", "berezinian_bundle",
    "deformation_injectivity_dims", "dual_supercurve", "is_autodual",
    "make_split_supercurve", "moduli_dimension",
    "verify_berezinian_transition",
    "PluriCanonicalModel", "SuperPointFamily", "build_model",
    "canonical_nonembedding_demo", "criterion_local_freeness", "minimal_nu",
    "pluri_canonical_rank", "pushforward_over_superpoint",
    "random_deformation", "threshold_table", "very_ample_check",
    "verify_embedding",
]
