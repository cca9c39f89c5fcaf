"""Exact Lie-theoretic cohomology arithmetic for Picard-rank-one flag varieties."""

__version__ = "0.1.0"

from .rootsys import (  # noqa: F401
    MAX_RANK,
    ConfigError,
    Family,
    LieType,
    Root,
    RootSystem,
    Weight,
    all_lie_types,
    build_root_system,
    fundamental_weight,
    root_system,
    root_to_weight_coords,
)

from .bwb import (  # noqa: F401
    CohomologyTable,
    bwb_cohomology,
    classify,
    classify_cotangent_twist_weights,
    to_dominant,
    weyl_dim,
)

from .parabolic import (  # noqa: F401
    MacaulayStatus,
    ParabolicData,
    UnsupportedPairError,
    h0_twisted_cotangent,
    konno_lowest_weights,
    konno_pairs,
    macaulay_exceptions,
    parabolic_data,
    sigma,
)

from .verify import (  # noqa: F401
    CaseResult,
    Report,
    check_lemma_studiopesi,
    check_theorem_lungo,
    emit_report,
)
