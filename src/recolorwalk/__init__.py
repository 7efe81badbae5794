"""Recoloring walks between proper graph colorings.

Given a graph of bounded maximum average degree (or bounded degeneracy) and
two proper k-colorings, construct an explicit walk between them that
recolors one vertex at a time and stays proper throughout, with per-vertex
recoloring counts bounded by documented recurrences. Exhaustive oracles
certify everything at desk scale.
"""

from .errors import (
    GraphFormatError,
    ImproperInput,
    PaletteTooSmall,
    RecolorwalkError,
    SequenceViolation,
    SizeGuaranteeViolated,
    StateSpaceTooLarge,
)
from .graphs import (
    Coloring,
    Graph,
    degeneracy_ordering,
    mad_brute,
    mad_exact,
    parse_coloring,
    parse_graph,
    serialize_coloring,
)
from .layering import (
    DegreePartition,
    SpecialISParams,
    build_degree_partition,
    degree_partition_from_degeneracy,
    partition_round_bound,
    serialize_partition,
    validate_partition,
)
from .engine import (
    EliminationTrace,
    RecolorStats,
    RecoloringSequence,
    RecoloringStep,
    WorkSets,
    recolor_between,
    recolor_theorem_pipeline,
    reduce_palette,
    sequence_stats,
    verify_sequence,
    walk_bound,
)
from .oracle import (
    DEFAULT_STATE_CAP,
    bfs_distance,
    count_proper_colorings,
    exact_diameter,
)

__all__ = [
    "Coloring",
    "DEFAULT_STATE_CAP",
    "DegreePartition",
    "EliminationTrace",
    "Graph",
    "GraphFormatError",
    "ImproperInput",
    "PaletteTooSmall",
    "RecolorStats",
    "RecoloringSequence",
    "RecoloringStep",
    "RecolorwalkError",
    "SequenceViolation",
    "SizeGuaranteeViolated",
    "SpecialISParams",
    "StateSpaceTooLarge",
    "WorkSets",
    "bfs_distance",
    "build_degree_partition",
    "count_proper_colorings",
    "degeneracy_ordering",
    "degree_partition_from_degeneracy",
    "exact_diameter",
    "mad_brute",
    "mad_exact",
    "parse_coloring",
    "parse_graph",
    "partition_round_bound",
    "recolor_between",
    "recolor_theorem_pipeline",
    "reduce_palette",
    "sequence_stats",
    "serialize_coloring",
    "serialize_partition",
    "validate_partition",
    "verify_sequence",
    "walk_bound",
]

__version__ = "0.1.0"
