"""Exact-arithmetic toolkit for pluri-canonical models of split super
Riemann surfaces over hyperelliptic curves."""

import importlib

__version__ = "0.1.0"

# Each public name, listed under the module that defines it.  A name is
# loaded on first access (PEP 562), with its module: a CLI process loads
# only the modules its subcommand runs, because where no bytecode cache
# is written, compiling the package's modules is most of the start-up
# time (the README gives the sets and the times).
_EXPORTS = {
    "curve": (
        "CurvePoint", "Divisor", "FunctionFieldElement", "HyperellipticCurve",
        "UnrepresentableSupportError", "standard_curve"),
    "riemann_roch": (
        "DivisorClass", "ThetaCharacteristic", "canonical_class", "class_eq",
        "h0", "h1", "is_principal", "parity_representatives", "rr_space",
        "semi_reduce", "theta_characteristics"),
    "supercurve": (
        "RankPair", "SplitSupercurve", "berezinian_bundle",
        "deformation_injectivity_dims", "dual_supercurve", "is_autodual",
        "make_split_supercurve", "moduli_dimension",
        "verify_berezinian_transition"),
    "pluricanonical": (
        "PluriCanonicalModel", "SuperPointFamily", "build_model",
        "canonical_nonembedding_demo", "criterion_local_freeness",
        "minimal_nu", "pluri_canonical_rank", "pushforward_over_superpoint",
        "random_deformation", "threshold_table", "very_ample_check",
        "verify_embedding"),
    "graded_algebra": (
        "GrassmannAlgebra", "GrassmannElement", "SuperMatrix",
        "VectorFieldSC", "check_superconformal", "superconformal_derivation",
        "susy_generator_square"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__),
                           name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
