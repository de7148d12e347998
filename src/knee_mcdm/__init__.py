"""Knee selection on approximate Pareto fronts.

Given a finite front, three provably-agreeing rules pick the same most
preferred equivalence class of solutions: minimum Manhattan distance from
the normalized ideal vector, a weighted sum with one-over-spread weights,
and a knockout tournament of pairwise net-improvement comparisons.
"""

from .errors import (
    AllDimensionsDegenerate,
    DegenerateSpreadWarning,
    DuplicateId,
    EmptyFront,
    EquivalenceViolation,
    InvalidEpsilon,
    InvalidSpec,
    KneeMCDMError,
    NonFiniteValue,
    ParseError,
    SpreadOverflow,
)
from .front import (
    Front,
    NormalizedFront,
    dominance_filter,
    load_front,
    normalize,
    write_front,
)
from .generators import (
    FAMILIES,
    FrontSpec,
    generate,
    random_nondominated_front,
)
from .selection import (
    DEFAULT_EPSILON,
    ComparisonRecord,
    Decision,
    EquivalenceClass,
    EquivalenceClasses,
    EquivalenceReport,
    build_classes,
    rank,
    select_dnc,
    select_mmd,
    select_ws,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "AllDimensionsDegenerate",
    "ComparisonRecord",
    "DEFAULT_EPSILON",
    "Decision",
    "DegenerateSpreadWarning",
    "DuplicateId",
    "EmptyFront",
    "EquivalenceClass",
    "EquivalenceClasses",
    "EquivalenceReport",
    "EquivalenceViolation",
    "FAMILIES",
    "Front",
    "FrontSpec",
    "InvalidEpsilon",
    "InvalidSpec",
    "KneeMCDMError",
    "NonFiniteValue",
    "NormalizedFront",
    "ParseError",
    "SpreadOverflow",
    "build_classes",
    "dominance_filter",
    "generate",
    "load_front",
    "normalize",
    "random_nondominated_front",
    "rank",
    "select_dnc",
    "select_mmd",
    "select_ws",
    "verify_equivalence",
    "write_front",
]
