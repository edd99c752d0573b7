"""Closed-form rates for the K-user many-to-one Gaussian interference
channel under a mod-sum secrecy scheme.

Model: K transmitter/receiver pairs, direct links with unit gain and
unit-variance noise, and cross power gains a_1..a_{K-1} from the first
K-1 senders into receiver K, which is also the eavesdropper for their
messages.  All rates are bits per channel use with
C(x) = 0.5*log2(1 + x).  The Poltyrev exponent helper uses natural logs
internally, the usual convention for unconstrained AWGN decoding.

Each closed form lives in exactly one function, and callers such as the
``rates`` and ``sweep`` subcommands read the functions they need: the
unclamped interferer part (``interferer_sum_rate``) feeds both the
achievable sum rate and its clamp test, ``rate_split`` takes its
sacrificed rate from ``per_user_secrecy_cost``, and the a_i >= 1
hypothesis of the converse is checked only by ``upper_bound_sum_rate``.
A closed form that reads only K, P_min and P_K takes those scalars, not
a ``SystemConfig``; with ``symmetric_upper_bound_sum_rate`` they give a
symmetric sweep point in O(1).
"""

from __future__ import annotations

import math
import operator
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
        object.__setattr__(self, "P", tuple(map(float, self.P)))
        object.__setattr__(self, "a", tuple(map(float, self.a)))
        if len(self.P) != self.K:
            raise ValueError("P must list one power per user")
        if len(self.a) != self.K - 1:
            raise ValueError("a must list one cross gain per interfering user")
        if not all(map(math.isfinite, self.P + self.a)):
            raise ValueError("powers and cross gains must be finite")
        if min(self.P) <= 0:
            raise ValueError("powers must be positive")
        if min(self.a) <= 0:
            raise ValueError("cross gains must be positive")
        if not math.isfinite(sum(map(operator.mul, self.a, self.P))):
            raise ValueError("received power sum a_i*P_i must be finite")

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
        return min(map(operator.mul, self.a, self.P))


def alignment_index(cfg: SystemConfig) -> int:
    """1-based index of the user with the smallest received power a_i*P_i.

    Ties resolve to the smallest index; every interferer scales down to
    this user's received power so all arrive at the same amplitude.
    """
    products = list(map(operator.mul, cfg.a, cfg.P))
    return products.index(min(products)) + 1


@dataclass(frozen=True)
class VeryStrongCheck:
    satisfied: bool
    threshold: float
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
    return VeryStrongCheck(satisfied=cfg.a[j - 1] > threshold,
                           threshold=threshold, j_star=j)


def interferer_sum_rate(k: int, p_min: float) -> float:
    """Unclamped interferer part (K-2)*C(P_min) - log2(K-1) of the
    achievable sum rate; the zero clamp is active exactly when it is
    negative."""
    return (k - 2) * awgn_capacity(p_min) - math.log2(k - 1)


def achievable_sum_rate(k: int, p_min: float, p_k: float) -> float:
    """Achievable secrecy sum rate of the mod-sum scheme.

    max((K-2)*C(P_min) - log2(K-1), 0) + C(P_K).  The value is computed
    for any configuration; it is only guaranteed achievable under the
    very-strong-interference condition (``very_strong_interference``).
    """
    return max(interferer_sum_rate(k, p_min), 0.0) + awgn_capacity(p_k)


def upper_bound_sum_rate(cfg: SystemConfig) -> float:
    """Converse bound on the secrecy sum rate, valid when all a_i >= 1.

    sum_i C(P_i) - C( sum_i a_i*P_i / ((K-1)*max_i a_i) ).
    """
    if min(cfg.a) < 1.0:
        raise InfeasibleConfigError(
            "upper bound requires every cross gain a_i >= 1")
    c_max = max(cfg.a)
    received = sum(map(operator.mul, cfg.a, cfg.P))
    return (sum(map(awgn_capacity, cfg.P))
            - awgn_capacity(received / ((cfg.K - 1) * c_max)))


def symmetric_upper_bound_sum_rate(k: int, p_min: float, p_k: float) -> float:
    """Converse bound (K-2)*C(P_min) + C(P_K) of a symmetric channel.

    Equals ``upper_bound_sum_rate`` for any configuration whose K-1
    interferers share the power P_min and one gain a >= 1: the subtracted
    term is then C(P_min).  The sweep's automatic gain, 1.05 times
    ``very_strong_gain_threshold``, is always >= 1.05*(P_K+1) > 1.
    """
    return (k - 2) * awgn_capacity(p_min) + awgn_capacity(p_k)


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
    alpha: float
    effective_noise_var: float


def mmse_coefficients(cfg: SystemConfig) -> MmseCoefficients:
    p = cfg.p_aligned
    gamma = math.sqrt(cfg.p_k / p)
    p_x = (cfg.p_k + 1.0) / p
    p_n = float(cfg.K - 1)
    alpha = p_n / (p_n + p_x)
    return MmseCoefficients(gamma=gamma, alpha=alpha,
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


def rate_split(cfg: SystemConfig) -> RateSplit:
    """Split C(P_min) into sacrificed and confidential parts per user.

    r_x is ``per_user_secrecy_cost`` and r_e = C(P_min) - r_x; the K-1
    confidential rates telescope to ``interferer_sum_rate``.
    """
    r_x = per_user_secrecy_cost(cfg.p_min, cfg.K)
    r_e = awgn_capacity(cfg.p_min) - r_x
    return RateSplit(r_x=r_x, r_e=r_e, feasible=r_e >= 0.0)


def per_user_secrecy_cost(p_min: float, num_users: int) -> float:
    """Rate each interfering user sacrifices for the group's secrecy.

    (C(p_min) + log2(K-1))/(K-1); strictly decreasing in K and vanishing
    as the user count grows.
    """
    if num_users < 3:
        raise ValueError("cost defined for K >= 3")
    return (awgn_capacity(p_min) + math.log2(num_users - 1)) / (num_users - 1)

