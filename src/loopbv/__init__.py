"""Exact mod-2 loop-homology computations for odd-dimensional projective spaces.

The package computes the loop-product ring on the free loop space, its BV
operator and Gerstenhaber bracket under the four admissible case
configurations, the second and third pages of the circle-fibration spectral
sequence of either loop-space component, exact Poincaré series with their
average alternating Betti number, and the resonance identity for closed
geodesic data.
"""

from .ring import (
    AlgebraConfig,
    AlgebraElement,
    BVCase,
    Component,
    InputError,
    Monomial,
    add,
    basis,
    component,
    dimension,
    element,
    generator,
    loop_degree,
    multiply,
    normalize,
    power,
    render_element,
    render_monomial,
    top_degree,
    unit,
    zero,
)
from .bv import (
    DeltaTable,
    GeneratorMorphism,
    MorphismReport,
    apply_morphism,
    bracket,
    bracket_table,
    delta,
    delta_oracle,
    delta_table,
    generator_bracket,
    identity_morphism,
    morphism_from_switches,
    verify_morphism_relations,
)
from .series import (
    NonQuasilinearError,
    RationalSeries,
    TruncatedSeries,
    average_alternating,
    betti,
    eq_exact,
    expand,
    le_series,
    lg_series,
    total_series,
)
from .spectral import (
    CollapseReport,
    Page,
    SSConfig,
    d2_matrix,
    d2_rank,
    e2_page,
    e3_page,
    page_from_json,
    page_series,
    page_to_json,
    verify_collapse,
)
from .resonance import (
    GeodesicRecord,
    MorseTruncation,
    NondegenerateReport,
    ResonanceReport,
    index_sequence,
    load_problem,
    mean_euler,
    morse_truncation,
    nondegenerate_check,
    nondegenerate_record,
    record_from_dict,
    resonance_check,
)

__version__ = "0.1.0"
