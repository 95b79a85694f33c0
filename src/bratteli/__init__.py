"""Exact-arithmetic toolkit for Bratteli diagrams of AF-algebras.

Core pieces: diagram prefixes and the triangular family (`diagram`),
block-structure consistency checks for residual finite-dimensionality and
just-infiniteness (`rfd`), the ideal lattice and quotient machinery
(`ideals`), exact trace-simplex geometry (`simplex`, `traces`), approximate
intertwinings with certified truncation errors (`intertwine`), constructive
realization of inverse-limit simplex targets (`synthesis`), dimension-group
prefix computations (`k0`), and file/CLI plumbing (`formats`, `fixtures`,
`dotexport`, `cli`).
"""

from .diagram import (
    BratteliPrefix,
    DimensionVector,
    MultiplicityMatrix,
    TriangularSpec,
    characteristic_sequence,
    embed_triangular,
)
from .errors import BratteliError, FormatError, InsufficientPrefixError, InvalidPrefixError
from .ideals import (
    IdealProfile,
    PrimitiveIdeal,
    close,
    enumerate_ideals,
    has_findim_quotient_line,
    is_compact,
    just_infinite_evidence,
    primitive_profiles,
    profile_from_last_level,
    profile_is_valid,
    quotient,
)
from .intertwine import (
    GapSeries,
    IntertwiningData,
    MapSequence,
    TailBound,
    compose_range,
    gap_series,
    limit_vertex_estimate,
    map_distance,
)
from .k0 import K0Element, nondegeneracy_witness, positivity_check, recurrence_check
from .rfd import (
    RfdResult,
    RfdWitness,
    check_rfd,
    check_rfd_ji,
    validate_witness,
)
from .simplex import SimplexPoint, StochasticAffineMap
from .synthesis import (
    Classification,
    StationarySpec,
    SynthesisCertificate,
    TailRule,
    TargetSequence,
    approximate_on_simplex,
    classify_stationary,
    stationary_targets,
    synthesize,
)
from .traces import (
    TraceLabel,
    induced_trace_map,
    label_trace,
    level_maps,
    limit_trace_restriction,
    push_point,
    zeta,
)

__version__ = "0.1.0"
