"""Continued fraction digit streams over rational sequences, and the
statistics that make the concatenated stream look like a normal number:
cylinder measures, per-rational classification, censuses, and Monte Carlo
estimates of the exceptional sets.
"""

from .census import (
    CensusReport,
    EFDecayReport,
    GammaParams,
    GaussDigitSampler,
    MeasureEstimate,
    NormalityParams,
    digit_length,
    ef_decay_estimates,
    estimate_measure,
    gamma_census,
    gamma_prime_contains,
    in_E_set,
    in_F_set,
    in_gamma,
    is_eps_s_normal,
    mc_growth_rate,
    n_delta,
    run_census,
)
from .core import (
    CFExpansion,
    Convention,
    Convergent,
    Rational,
    concat_rationals,
    convergents,
    euclid_digits,
    evaluate,
    evaluate_digits,
    expand,
    gauss_map,
    gauss_shift,
    mirror,
)
from .enumeration import (
    SequenceKind,
    count_R,
    enumerate_R,
    index_of,
    iter_members,
    rational_at,
)
from .errors import ResourceLimitError
from .measures import (
    KHINCHIN_LEVY,
    Pattern,
    constants,
    cylinder_geometry,
    gauss_interval,
    gauss_measure,
    lebesgue_measure,
    pattern_grid,
    sample_gauss,
)
from .sieves import (
    build_tables,
    coprime_count,
    is_prime,
    phi_summatory,
    pi_prime_joint,
    pi_prime_linear,
)
from .streams import (
    DigitStream,
    FrequencyTracker,
    GrowthTracker,
    NormalityReport,
    count_patterns,
    digit_block,
    hypothesis_ratios,
    normality_report,
)

__version__ = "0.1.0"
