"""Lattice secrecy lab: nested-lattice coding on the many-to-one
Gaussian interference channel, with exact rate formulas, Monte Carlo
error campaigns and brute-force leakage verification."""

from .errors import (
    CapacityError,
    InfeasibleConfigError,
    InvalidCertificateError,
    InvalidCodeError,
    InvariantViolationError,
)
from .lattices import (
    CONSTRUCTION_A,
    CUBIC,
    EpsilonDiagnostic,
    Lattice,
    NestedPair,
    ball_normalized_second_moment,
    codebook,
    covering_ball_second_moment,
    covering_radius,
    effective_radius,
    gaussian_approx_epsilon,
    in_voronoi,
    make_construction_a_pair,
    make_cubic_pair,
    mod_lattice,
    nearest_coords,
    quantize,
    sample_dither,
    second_moment,
    second_moment_mc,
)
from .leakage import (
    DiscreteEnsemble,
    LeakageCheck,
    chain_conditional_entropy,
    conditional_entropy_given_modsum,
    leakage_bound_check,
)
from .rates import (
    DecodingThresholds,
    MmseCoefficients,
    RateReport,
    RateSplit,
    SystemConfig,
    VeryStrongCheck,
    achievable_sum_rate,
    alignment_index,
    awgn_capacity,
    decoding_thresholds,
    mmse_coefficients,
    per_user_secrecy_cost,
    poltyrev_exponent,
    rate_gap,
    rate_report,
    rate_split,
    secrecy_cost_curve,
    upper_bound_sum_rate,
    very_strong_gain_threshold,
    very_strong_interference,
)
from .representation import (
    SumCertificate,
    candidate_set,
    certify_sum,
    mod_sum,
    reconstruct_sum,
    window_index,
)
from .simulate import (
    CampaignReport,
    Scheme,
    TrialOutcome,
    apply_channel,
    classify_events,
    decode_direct,
    decode_mod_sum,
    decode_user_k,
    derive_trial_seed,
    encode_interferer,
    encode_user_k,
    run_campaign,
    run_trial,
    subtract_interference,
    wilson_interval,
)

__version__ = "0.1.0"
