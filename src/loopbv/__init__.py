"""Exact mod-2 loop-homology computations for odd-dimensional projective spaces.

The package computes the loop-product ring on the free loop space, its BV
operator and Gerstenhaber bracket under the four admissible case
configurations, the second and third pages of the circle-fibration spectral
sequence of either loop-space component, exact Poincaré series with their
average alternating Betti number, and the resonance identity for closed
geodesic data.

Public names resolve on first access (PEP 562), so ``import loopbv`` loads no
submodule and a command-line call loads only the modules it runs.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_EXPORTS = {
    "ring": (
        "AlgebraConfig", "AlgebraElement", "BVCase", "Component", "InputError", "Monomial",
        "add", "basis", "component", "dimension", "element", "generator", "loop_degree",
        "multiply", "normalize", "power", "render_element", "render_monomial", "top_degree",
        "unit", "zero",
    ),
    "bv": (
        "DeltaTable", "GeneratorMorphism", "MorphismReport", "apply_morphism", "bracket",
        "bracket_table", "delta", "delta_oracle", "delta_table", "generator_bracket",
        "identity_morphism", "morphism_from_switches", "verify_morphism_relations",
    ),
    "series": (
        "NonQuasilinearError", "RationalSeries", "TruncatedSeries", "average_alternating",
        "betti", "eq_exact", "expand", "le_series", "lg_series", "total_series",
    ),
    "spectral": (
        "CollapseReport", "Page", "SSConfig", "d2_matrix", "d2_rank", "e2_page", "e3_page",
        "page_from_json", "page_series", "page_to_json", "verify_collapse",
    ),
    "resonance": (
        "GeodesicRecord", "MorseTruncation", "NondegenerateReport", "ResonanceReport",
        "index_sequence", "load_problem", "mean_euler", "morse_truncation",
        "nondegenerate_check", "nondegenerate_record", "record_from_dict", "resonance_check",
    ),
    "gf2": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
