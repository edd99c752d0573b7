"""Closed-form rates for the K-user many-to-one Gaussian interference
channel under a mod-sum secrecy scheme.

Model: K transmitter/receiver pairs, direct links with unit gain and
unit-variance noise, and cross power gains a_1..a_{K-1} from the first
K-1 senders into receiver K, which is also the eavesdropper for their
messages.  All rates are bits per channel use with
C(x) = 0.5*log2(1 + x).  The Poltyrev exponent helper uses natural logs
internally, the usual convention for unconstrained AWGN decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleConfigError


def awgn_capacity(snr: float) -> float:
    """C(x) = 0.5*log2(1+x) for x >= 0."""
    if snr < 0:
        raise ValueError("SNR must be nonnegative")
    return 0.5 * math.log2(1.0 + snr)


@dataclass(frozen=True)
class SystemConfig:
    """Channel configuration: user count, powers, cross gains.

    ``P`` holds the K transmit power constraints (noise-normalized SNR
    units, user K last); ``a`` holds the K-1 cross power gains into
    receiver K.  Direct gains and noise variances are fixed at one.
    """

    K: int
    P: tuple[float, ...]
    a: tuple[float, ...]

    def __post_init__(self):
        if self.K < 3:
            raise ValueError("need at least 3 users")
        object.__setattr__(self, "P", tuple(float(p) for p in self.P))
        object.__setattr__(self, "a", tuple(float(g) for g in self.a))
        if len(self.P) != self.K:
            raise ValueError("P must list one power per user")
        if len(self.a) != self.K - 1:
            raise ValueError("a must list one cross gain per interfering user")
        if any(p <= 0 for p in self.P):
            raise ValueError("powers must be positive")
        if any(g <= 0 for g in self.a):
            raise ValueError("cross gains must be positive")

    @property
    def p_k(self) -> float:
        """Power constraint of user K."""
        return self.P[-1]

    @property
    def p_min(self) -> float:
        """Smallest interfering-user power."""
        return min(self.P[: self.K - 1])

    @property
    def p_aligned(self) -> float:
        """Common received interference power min_i a_i*P_i at receiver K."""
        return min(g * p for g, p in zip(self.a, self.P))


def alignment_index(cfg: SystemConfig) -> int:
    """1-based index of the user with the smallest received power a_i*P_i.

    Ties resolve to the smallest index; every interferer scales down to
    this user's received power so all arrive at the same amplitude.
    """
    products = [g * p for g, p in zip(cfg.a, cfg.P)]
    return min(range(cfg.K - 1), key=lambda i: (products[i], i)) + 1


@dataclass(frozen=True)
class VeryStrongCheck:
    satisfied: bool
    threshold: float
    a_j: float
    j_star: int


def very_strong_gain_threshold(k: int, p_j: float, p_min: float,
                               p_k: float) -> float:
    """Gain the aligned user j must exceed for very strong interference:
    max{ ((P_K+1)/P_j) * ((K-2)/(K-1) + P_min), (P_K+1)/P_j }."""
    base = (p_k + 1.0) / p_j
    return max(base * ((k - 2) / (k - 1) + p_min), base)


def very_strong_interference(cfg: SystemConfig) -> VeryStrongCheck:
    """Gain condition making the mod-sum decoding constraint inactive:
    the aligned gain a_j exceeds ``very_strong_gain_threshold``."""
    j = alignment_index(cfg)
    threshold = very_strong_gain_threshold(cfg.K, cfg.P[j - 1], cfg.p_min,
                                           cfg.p_k)
    a_j = cfg.a[j - 1]
    return VeryStrongCheck(satisfied=a_j > threshold, threshold=threshold,
                           a_j=a_j, j_star=j)


def achievable_sum_rate(cfg: SystemConfig) -> float:
    """Achievable secrecy sum rate of the mod-sum scheme.

    max((K-2)*C(P_min) - log2(K-1), 0) + C(P_K).  The value is computed
    for any configuration; it is only guaranteed achievable under the
    very-strong-interference condition (see the report's flag).
    """
    interferer_part = (cfg.K - 2) * awgn_capacity(cfg.p_min) \
        - math.log2(cfg.K - 1)
    return max(interferer_part, 0.0) + awgn_capacity(cfg.p_k)


def upper_bound_sum_rate(cfg: SystemConfig) -> float:
    """Converse bound on the secrecy sum rate, valid when all a_i >= 1.

    sum_i C(P_i) - C( sum_i a_i*P_i / ((K-1)*max_i a_i) ).
    """
    if any(g < 1.0 for g in cfg.a):
        raise InfeasibleConfigError(
            "upper bound requires every cross gain a_i >= 1")
    c_max = max(cfg.a)
    received = sum(g * p for g, p in zip(cfg.a, cfg.P))
    return (sum(awgn_capacity(p) for p in cfg.P)
            - awgn_capacity(received / ((cfg.K - 1) * c_max)))


def rate_gap(cfg: SystemConfig) -> float:
    """Upper bound minus achievable rate.

    In symmetric very-strong configurations without the zero clamp this
    equals log2(K-1) exactly.
    """
    return upper_bound_sum_rate(cfg) - achievable_sum_rate(cfg)


@dataclass(frozen=True)
class DecodingThresholds:
    """Rate thresholds for the three decoding stages.

    ``direct`` lists the per-user values C(P_i) as conventionally stated;
    ``direct_physical`` lists C(P/a_i), the capacity at the power each
    interferer actually transmits after alignment.  The two coincide in
    symmetric configurations; both are reported because they differ in
    general.
    """

    direct: tuple[float, ...]
    direct_physical: tuple[float, ...]
    mod_sum: float
    distortion_ok: bool
    user_k: float
    mu: float


def decoding_thresholds(cfg: SystemConfig) -> DecodingThresholds:
    """All decoding-stage thresholds for one configuration.

    mod_sum is 0.5*log2(1/(K-1) + P/(P_K+1)); distortion_ok records
    whether P > P_K + 1 (equivalently mu > 1), the condition for the
    residual after interference cancellation to stay unwrapped.
    """
    p = cfg.p_aligned
    mu = p / (cfg.p_k + 1.0)
    return DecodingThresholds(
        direct=tuple(awgn_capacity(pi) for pi in cfg.P[: cfg.K - 1]),
        direct_physical=tuple(awgn_capacity(p / g) for g in cfg.a),
        mod_sum=0.5 * math.log2(1.0 / (cfg.K - 1) + mu),
        distortion_ok=mu > 1.0,
        user_k=awgn_capacity(cfg.p_k),
        mu=mu)


@dataclass(frozen=True)
class MmseCoefficients:
    """Receiver-K scaling that minimizes the effective noise variance.

    In the 1/sqrt(P)-normalized domain the wanted part has per-dimension
    power p_n = K-1 and the rest has p_x = (P_K+1)/P; the minimizing
    scale is alpha = p_n/(p_n+p_x) with minimum variance
    p_x*p_n/(p_x+p_n).
    """

    gamma: float
    p_x: float
    p_n: float
    alpha: float
    effective_noise_var: float


def mmse_coefficients(cfg: SystemConfig) -> MmseCoefficients:
    p = cfg.p_aligned
    gamma = math.sqrt(cfg.p_k / p)
    p_x = (cfg.p_k + 1.0) / p
    p_n = float(cfg.K - 1)
    alpha = p_n / (p_n + p_x)
    return MmseCoefficients(gamma=gamma, p_x=p_x, p_n=p_n, alpha=alpha,
                            effective_noise_var=p_x * p_n / (p_x + p_n))


def poltyrev_exponent(mu: float) -> float:
    """Error exponent for unconstrained AWGN lattice decoding.

    Piecewise in the volume-to-noise ratio mu (natural logs):
    0.5*((mu-1) - ln mu) on (1,2], 0.5*ln(mu*e/4) on [2,4], mu/8 above.
    Continuous, strictly increasing, positive exactly when mu > 1.
    """
    if mu <= 1.0:
        raise ValueError("exponent defined only for mu > 1")
    if mu <= 2.0:
        return 0.5 * ((mu - 1.0) - math.log(mu))
    if mu <= 4.0:
        return 0.5 * math.log(mu * math.e / 4.0)
    return mu / 8.0


@dataclass(frozen=True)
class RateSplit:
    """Per-interferer split into sacrificed and confidential rate.

    Each of the K-1 interfering users gives up ``r_x`` bits per channel
    use to randomize the eavesdropper's observation and keeps ``r_e``
    confidential bits; infeasible (negative r_e) in the clamp regime.
    """

    r_x: float
    r_e: float
    feasible: bool
    interferer_total: float


def rate_split(cfg: SystemConfig) -> RateSplit:
    """Split C(P_min) into sacrificed and confidential parts per user.

    r_x = (C(P_min) + log2(K-1))/(K-1), r_e = C(P_min) - r_x; the K-1
    confidential rates telescope to (K-2)*C(P_min) - log2(K-1), the
    unclamped interferer part of the achievable sum rate.
    """
    r = awgn_capacity(cfg.p_min)
    r_x = (r + math.log2(cfg.K - 1)) / (cfg.K - 1)
    r_e = r - r_x
    return RateSplit(r_x=r_x, r_e=r_e, feasible=r_e >= 0.0,
                     interferer_total=(cfg.K - 1) * r_e)


def per_user_secrecy_cost(p_min: float, num_users: int) -> float:
    """Rate each interfering user sacrifices for the group's secrecy.

    (C(p_min) + log2(K-1))/(K-1); strictly decreasing in K and vanishing
    as the user count grows.
    """
    if num_users < 3:
        raise ValueError("cost defined for K >= 3")
    return (awgn_capacity(p_min) + math.log2(num_users - 1)) / (num_users - 1)


def secrecy_cost_curve(p_min: float, k_values) -> list[tuple[int, float]]:
    """Per-user secrecy cost along a grid of user counts."""
    return [(int(k), per_user_secrecy_cost(p_min, int(k))) for k in k_values]


@dataclass(frozen=True)
class RateReport:
    """Every closed-form quantity evaluated for one configuration.

    ``upper_sum`` and ``gap`` are None when some cross gain is below one
    (the converse hypothesis fails).  ``poltyrev`` is None when mu <= 1.
    """

    config: SystemConfig
    j_star: int
    p_aligned: float
    p_min: float
    very_strong: bool
    very_strong_threshold: float
    achievable_sum: float
    clamp_active: bool
    upper_sum: float | None
    gap: float | None
    c_max: float
    h: tuple[float, ...]
    threshold_direct: tuple[float, ...]
    threshold_direct_physical: tuple[float, ...]
    threshold_modsum: float
    distortion_ok: bool
    threshold_user_k: float
    gamma: float
    p_x: float
    p_n: float
    alpha_star: float
    eff_noise_var: float
    mu: float
    poltyrev: float | None
    rate_split_x: float
    rate_split_e: float
    rate_split_feasible: bool
    per_user_cost: float


def rate_report(cfg: SystemConfig) -> RateReport:
    """Assemble the full report for one configuration."""
    vs = very_strong_interference(cfg)
    thr = decoding_thresholds(cfg)
    mmse = mmse_coefficients(cfg)
    split = rate_split(cfg)
    achievable = achievable_sum_rate(cfg)
    clamp = ((cfg.K - 2) * awgn_capacity(cfg.p_min)
             - math.log2(cfg.K - 1)) < 0.0
    if all(g >= 1.0 for g in cfg.a):
        upper = upper_bound_sum_rate(cfg)
        gap = upper - achievable
    else:
        upper = None
        gap = None
    c_max = max(cfg.a)
    return RateReport(
        config=cfg,
        j_star=vs.j_star,
        p_aligned=cfg.p_aligned,
        p_min=cfg.p_min,
        very_strong=vs.satisfied,
        very_strong_threshold=vs.threshold,
        achievable_sum=achievable,
        clamp_active=clamp,
        upper_sum=upper,
        gap=gap,
        c_max=c_max,
        h=tuple(g / c_max for g in cfg.a),
        threshold_direct=thr.direct,
        threshold_direct_physical=thr.direct_physical,
        threshold_modsum=thr.mod_sum,
        distortion_ok=thr.distortion_ok,
        threshold_user_k=thr.user_k,
        gamma=mmse.gamma,
        p_x=mmse.p_x,
        p_n=mmse.p_n,
        alpha_star=mmse.alpha,
        eff_noise_var=mmse.effective_noise_var,
        mu=thr.mu,
        poltyrev=poltyrev_exponent(thr.mu) if thr.mu > 1.0 else None,
        rate_split_x=split.r_x,
        rate_split_e=split.r_e,
        rate_split_feasible=split.feasible,
        per_user_cost=per_user_secrecy_cost(cfg.p_min, cfg.K))
