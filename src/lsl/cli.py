"""Reproducible experiment front door.

Subcommands: rates, sweep, simulate, leakage, repr-check, lattice-info.
Configuration comes from flat key=value files (``#`` comments allowed),
overridden by command-line flags; the seed may also come from the
``LSL_SEED`` environment variable at lowest precedence.  All CSV output
is byte-deterministic for a fixed (config, seed): rates print with six
fixed decimals, probabilities in scientific notation, and every file
starts with a config-echo comment line followed by a header row.

Exit codes: 0 success, 1 usage or parse error, 2 infeasible
configuration, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapacityError,
    InfeasibleConfigError,
    InvariantViolationError,
)
from .lattices import (
    CONSTRUCTION_A,
    CUBIC,
    covering_ball_second_moment,
    covering_radius,
    effective_radius,
    ball_normalized_second_moment,
    gaussian_approx_epsilon,
    make_construction_a_pair,
    make_cubic_pair,
    sample_dither,
    second_moment,
)
from .leakage import (
    DiscreteEnsemble,
    chain_conditional_entropy,
    conditional_entropy_given_modsum,
    leakage_bound_check,
)
from .rates import SystemConfig, rate_report
from .representation import certify_sum, reconstruct_sum
from .simulate import Scheme, run_campaign

#: Margin applied to the very-strong-interference threshold when sweeps
#: choose symmetric cross gains automatically.
SWEEP_GAIN_MARGIN = 1.05

_SWEEP_VARS = ("K", "Pmin")

_CONFIG_KEYS = {
    "K", "P", "a", "family", "q", "N", "generator",
    "trials", "seed", "out", "var", "from", "to", "step", "jobs",
}


class UsageError(Exception):
    """Bad flags, bad config file, or malformed values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Fully resolved run parameters, validated before any computation."""

    K: int = 3
    P: tuple[float, ...] = (10.0, 10.0, 10.0)
    a: tuple[float, ...] = (12.0, 12.0)
    family: str = CUBIC
    q: int = 2
    N: int = 2
    generator: tuple[tuple[int, ...], ...] | None = None
    trials: int = 10_000
    seed: int = 1
    out: str | None = None
    var: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    sweep_step: float = 1.0
    jobs: int = 1

    def system(self) -> SystemConfig:
        try:
            return SystemConfig(K=self.K, P=self.P, a=self.a)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    def pair(self):
        if self.family == CUBIC:
            return make_cubic_pair(self.q, self.N)
        if self.family == CONSTRUCTION_A:
            if self.generator is None:
                raise UsageError("construction-a requires generator=")
            return make_construction_a_pair(self.q, self.N, self.generator)
        raise UsageError(f"unknown lattice family {self.family!r}")

    def echo(self) -> str:
        gen = ";".join(",".join(str(x) for x in row)
                       for row in self.generator) if self.generator else "-"
        return (f"K={self.K} P={_fmt_list(self.P)} a={_fmt_list(self.a)} "
                f"family={self.family} q={self.q} N={self.N} generator={gen} "
                f"trials={self.trials} seed={self.seed}")

    def hash(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


def _fmt_list(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _fmt_rate(x) -> str:
    return "" if x is None else f"{x:.6f}"


def _fmt_prob(x) -> str:
    return f"{x:.6e}"


def _fmt_bool(b) -> str:
    return "1" if b else "0"


def _parse_float_list(text, what):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {what} list {text!r}") from None


def _parse_generator(text):
    try:
        return tuple(tuple(int(v) for v in row.split(","))
                     for row in text.split(";"))
    except ValueError:
        raise UsageError(f"cannot parse generator {text!r}") from None


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _parse_config_file(path):
    values = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _apply_values(cfg: RunConfig, values: dict) -> RunConfig:
    for key, val in values.items():
        if key == "K":
            cfg = replace(cfg, K=_parse_int(val, "K"))
        elif key == "P":
            cfg = replace(cfg, P=_parse_float_list(val, "P"))
        elif key == "a":
            cfg = replace(cfg, a=_parse_float_list(val, "a"))
        elif key == "family":
            cfg = replace(cfg, family=val)
        elif key == "q":
            cfg = replace(cfg, q=_parse_int(val, "q"))
        elif key == "N":
            cfg = replace(cfg, N=_parse_int(val, "N"))
        elif key == "generator":
            cfg = replace(cfg, generator=_parse_generator(val))
        elif key == "trials":
            cfg = replace(cfg, trials=_parse_int(val, "trials"))
        elif key == "seed":
            cfg = replace(cfg, seed=_parse_int(val, "seed"))
        elif key == "out":
            cfg = replace(cfg, out=val)
        elif key == "var":
            cfg = replace(cfg, var=val)
        elif key == "from":
            cfg = replace(cfg, sweep_from=float(val))
        elif key == "to":
            cfg = replace(cfg, sweep_to=float(val))
        elif key == "step":
            cfg = replace(cfg, sweep_step=float(val))
        elif key == "jobs":
            cfg = replace(cfg, jobs=_parse_int(val, "jobs"))
    return cfg


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    env_seed = os.environ.get("LSL_SEED")
    if env_seed is not None:
        cfg = replace(cfg, seed=_parse_int(env_seed, "LSL_SEED"))
    if args.config:
        cfg = _apply_values(cfg, _parse_config_file(args.config))
    flag_values = {}
    for key, attr in (("K", "K"), ("P", "P"), ("a", "a"),
                      ("family", "family"), ("q", "q"), ("N", "N"),
                      ("generator", "generator"), ("trials", "trials"),
                      ("seed", "seed"), ("out", "out"), ("jobs", "jobs")):
        val = getattr(args, attr, None)
        if val is not None:
            flag_values[key] = val
    for key, attr in (("var", "var"), ("from", "sweep_from"),
                      ("to", "sweep_to"), ("step", "sweep_step")):
        val = getattr(args, attr, None)
        if val is not None:
            flag_values[key] = val
    cfg = _apply_values(cfg, {k: str(v) if not isinstance(v, str) else v
                              for k, v in flag_values.items()})
    if cfg.trials < 1:
        raise UsageError("trials must be positive")
    if cfg.jobs < 1:
        raise UsageError("jobs must be positive")
    return cfg


def _emit(cfg: RunConfig, lines) -> None:
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _symmetric_config(k: int, p_min: float, p_k: float) -> SystemConfig:
    """Symmetric configuration with auto-chosen very-strong cross gains."""
    base = (p_k + 1.0) / p_min
    threshold = max(base * ((k - 2) / (k - 1) + p_min), base)
    gain = SWEEP_GAIN_MARGIN * threshold
    return SystemConfig(K=k, P=(p_min,) * (k - 1) + (p_k,),
                        a=(gain,) * (k - 1))


def cmd_rates(cfg: RunConfig) -> int:
    report = rate_report(cfg.system())
    r = report
    print(f"many-to-one channel, K={r.config.K} users")
    print(f"  P = {_fmt_list(r.config.P)}   a = {_fmt_list(r.config.a)}")
    print(f"  aligned user j*            {r.j_star}")
    print(f"  aligned received power P   {_fmt_rate(r.p_aligned)}")
    print(f"  very strong interference   {r.very_strong}"
          f" (threshold {_fmt_rate(r.very_strong_threshold)})")
    print(f"  achievable sum rate        {_fmt_rate(r.achievable_sum)} bits/use"
          f"{'  [clamped]' if r.clamp_active else ''}")
    if r.upper_sum is not None:
        print(f"  upper bound                {_fmt_rate(r.upper_sum)} bits/use")
        print(f"  gap                        {_fmt_rate(r.gap)} bits/use")
    else:
        print("  upper bound                n/a (needs every a_i >= 1)")
    print(f"  direct thresholds          {_fmt_list(r.threshold_direct)}")
    print(f"  direct thresholds (phys)   {_fmt_list(r.threshold_direct_physical)}")
    print(f"  mod-sum threshold          {_fmt_rate(r.threshold_modsum)}")
    print(f"  user-K threshold           {_fmt_rate(r.threshold_user_k)}")
    print(f"  mu = P/(P_K+1)             {_fmt_rate(r.mu)}"
          f" (residual ok: {r.distortion_ok})")
    print(f"  alpha*                     {r.alpha_star:.9f}")
    print(f"  effective noise variance   {r.eff_noise_var:.9f}")
    print(f"  rate split (r_x, r_e)      {_fmt_rate(r.rate_split_x)},"
          f" {_fmt_rate(r.rate_split_e)}"
          f"{'' if r.rate_split_feasible else '  [infeasible]'}")
    print(f"  per-user secrecy cost      {_fmt_rate(r.per_user_cost)}")
    if cfg.out:
        header = ("K,j_star,P_aligned,P_min,very_strong,achievable_sum,"
                  "clamp_active,upper_sum,gap,threshold_modsum,distortion_ok,"
                  "threshold_user_k,alpha_star,eff_noise_var,mu,poltyrev,"
                  "rate_split_x,rate_split_e,rate_split_feasible,"
                  "per_user_cost,threshold_direct,threshold_direct_physical")
        row = ",".join([
            str(r.config.K), str(r.j_star), _fmt_rate(r.p_aligned),
            _fmt_rate(r.p_min), _fmt_bool(r.very_strong),
            _fmt_rate(r.achievable_sum), _fmt_bool(r.clamp_active),
            _fmt_rate(r.upper_sum), _fmt_rate(r.gap),
            _fmt_rate(r.threshold_modsum), _fmt_bool(r.distortion_ok),
            _fmt_rate(r.threshold_user_k), f"{r.alpha_star:.9f}",
            f"{r.eff_noise_var:.9f}", _fmt_rate(r.mu),
            _fmt_rate(r.poltyrev), _fmt_rate(r.rate_split_x),
            _fmt_rate(r.rate_split_e), _fmt_bool(r.rate_split_feasible),
            _fmt_rate(r.per_user_cost),
            ";".join(_fmt_rate(v) for v in r.threshold_direct),
            ";".join(_fmt_rate(v) for v in r.threshold_direct_physical)])
        _emit(cfg, [f"# config: {cfg.echo()}", header, row])
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.var is None or cfg.sweep_from is None or cfg.sweep_to is None:
        raise UsageError("sweep needs --var, --from and --to")
    if cfg.var not in _SWEEP_VARS:
        raise UsageError(
            f"unsupported sweep variable {cfg.var!r} (choose from {_SWEEP_VARS})")
    base = cfg.system()
    p_k = base.p_k
    rows = []
    header = ("var,value,K,a_auto,per_user_cost,achievable_sum,upper_sum,"
              "gap,clamp_active,very_strong")
    if cfg.var == "K":
        k_lo, k_hi = int(cfg.sweep_from), int(cfg.sweep_to)
        step = max(int(cfg.sweep_step), 1)
        if k_lo < 3:
            raise UsageError("K sweep must start at 3 or above")
        values = range(k_lo, k_hi + 1, step)
        configs = [(str(k), _symmetric_config(k, base.p_min, p_k))
                   for k in values]
    else:
        if cfg.sweep_step <= 0:
            raise UsageError("step must be positive")
        grid = np.arange(cfg.sweep_from, cfg.sweep_to + 1e-12, cfg.sweep_step)
        if grid.size == 0 or np.any(grid <= 0):
            raise UsageError("Pmin sweep values must be positive")
        configs = [(_fmt_rate(v), _symmetric_config(base.K, float(v), p_k))
                   for v in grid]
    for label, sym in configs:
        rep = rate_report(sym)
        rows.append(",".join([
            cfg.var, label, str(sym.K), _fmt_rate(sym.a[0]),
            _fmt_rate(rep.per_user_cost), _fmt_rate(rep.achievable_sum),
            _fmt_rate(rep.upper_sum), _fmt_rate(rep.gap),
            _fmt_bool(rep.clamp_active), _fmt_bool(rep.very_strong)]))
    _emit(cfg, [f"# config: {cfg.echo()}", header] + rows)
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    system = cfg.system()
    report = rate_report(system)
    if report.mu <= 1.0:
        raise InfeasibleConfigError(
            "aligned interference power must exceed P_K + 1 "
            f"(mu = {report.mu:.6f})")
    scheme = Scheme.for_config(system, cfg.pair())
    campaign = run_campaign(scheme, cfg.trials, cfg.seed, jobs=cfg.jobs,
                            config_echo=cfg.echo())
    header = ("config_hash,trials,seed,e1_count,e1_rate,e1_lo,e1_hi,"
              "e2_count,e2_rate,e2_lo,e2_hi,e3_count,e3_rate,e3_lo,e3_hi,"
              "direct_counts,direct_rates,direct_lo,direct_hi,"
              "mean_eff_noise_power,predicted_eff_noise_var,"
              "mean_residual_power")
    cells = [cfg.hash(), str(campaign.trials), str(cfg.seed)]
    for count, rate, (lo, hi) in (
            (campaign.e1_count, campaign.e1_rate, campaign.e1_interval),
            (campaign.e2_count, campaign.e2_rate, campaign.e2_interval),
            (campaign.e3_count, campaign.e3_rate, campaign.e3_interval)):
        cells += [str(count), _fmt_prob(rate), _fmt_prob(lo), _fmt_prob(hi)]
    direct_ci = campaign.direct_error_intervals
    cells += [
        ";".join(str(c) for c in campaign.direct_error_counts),
        ";".join(_fmt_prob(r) for r in campaign.direct_error_rates),
        ";".join(_fmt_prob(lo) for lo, _ in direct_ci),
        ";".join(_fmt_prob(hi) for _, hi in direct_ci),
        _fmt_rate(campaign.mean_effective_noise_power),
        _fmt_rate(scheme.effective_noise_var),
        _fmt_rate(campaign.mean_residual_power)]
    _emit(cfg, [f"# config: {cfg.echo()}", header, ",".join(cells)])
    return 0


def cmd_leakage(cfg: RunConfig) -> int:
    pair = cfg.pair()
    ens = DiscreteEnsemble.from_pair(pair, cfg.K)
    h_cond = conditional_entropy_given_modsum(ens)
    target = (cfg.K - 2) * ens.dimension * ens.rate_per_dim
    check = leakage_bound_check(ens)
    chain_first = chain_conditional_entropy(ens, 1)
    chain_last = chain_conditional_entropy(ens, ens.num_senders)
    header = ("K,q,N,M,rate_per_dim,h_cond,identity_target,identity_ok,"
              "chain_first,chain_last,leakage,bound,modsum_entropy,"
              "index_entropy,index_bound,passed")
    row = ",".join([
        str(cfg.K), str(cfg.q), str(cfg.N), str(ens.size),
        _fmt_rate(ens.rate_per_dim), _fmt_rate(h_cond), _fmt_rate(target),
        _fmt_bool(abs(h_cond - target) <= 1e-12),
        _fmt_rate(chain_first), _fmt_rate(chain_last),
        _fmt_rate(check.leakage), _fmt_rate(check.bound),
        _fmt_rate(check.modsum_entropy), _fmt_rate(check.index_entropy),
        _fmt_rate(check.index_bound), _fmt_bool(check.passed)])
    _emit(cfg, [f"# config: {cfg.echo()}", header, row])
    return 0


def cmd_repr_check(cfg: RunConfig) -> int:
    if cfg.family != CUBIC:
        raise UsageError(
            "repr-check certifies sums on the coarse lattice, which is "
            "cubic for every family; use --family cubic")
    pair = cfg.pair()
    lattice = pair.coarse
    rng = np.random.default_rng(cfg.seed)
    k = cfg.K
    failures = 0
    max_index = 0
    for _ in range(cfg.trials):
        points = [sample_dither(lattice, rng) for _ in range(k)]
        cert = certify_sum(points, lattice)
        total = np.sum(points, axis=0)
        if not np.allclose(reconstruct_sum(cert), total, atol=1e-9):
            failures += 1
        max_index = max(max_index, cert.index)
    bound = k ** cfg.N
    header = "family,q,N,K,trials,failures,max_index,index_bound,passed"
    row = ",".join([
        cfg.family, str(cfg.q), str(cfg.N), str(k), str(cfg.trials),
        str(failures), str(max_index), str(bound),
        _fmt_bool(failures == 0 and max_index <= bound)])
    _emit(cfg, [f"# config: {cfg.echo()}", header, row])
    if failures or max_index > bound:
        raise InvariantViolationError(
            f"{failures} reconstruction failures, max index {max_index}")
    return 0


def cmd_lattice_info(cfg: RunConfig) -> int:
    pair = cfg.pair()
    coarse = pair.coarse
    eps = gaussian_approx_epsilon(coarse)
    r_u = covering_radius(coarse)
    r_l = effective_radius(coarse)
    rows = [
        ("family", cfg.family),
        ("q", str(cfg.q)),
        ("N", str(cfg.N)),
        ("codebook size", str(pair.nesting_ratio)),
        ("rate per dim", _fmt_rate(pair.rate_per_dim)),
        ("fine scale", f"{pair.fine.scale:.9f}"),
        ("coarse scale", f"{coarse.scale:.9f}"),
        ("coarse second moment", _fmt_rate(second_moment(coarse))),
        ("covering radius", f"{r_u:.9f}"),
        ("effective radius", f"{r_l:.9f}"),
        ("radius ratio", f"{r_u / r_l:.9f}"),
        ("epsilon (natural log)", f"{eps.epsilon:.9f}"),
        ("amplification exp(N*eps)", f"{eps.amplification:.9f}"),
        ("covering-ball moment", f"{covering_ball_second_moment(coarse):.9f}"),
        ("ball moment constant", f"{ball_normalized_second_moment(cfg.N):.9f}"),
    ]
    for name, value in rows:
        print(f"  {name:<26} {value}")
    if cfg.out:
        header = ("family,q,N,M,rate_per_dim,fine_scale,coarse_scale,"
                  "coarse_second_moment,covering_radius,effective_radius,"
                  "radius_ratio,epsilon,amplification,covering_ball_moment,"
                  "ball_constant")
        row = ",".join([
            cfg.family, str(cfg.q), str(cfg.N), str(pair.nesting_ratio),
            _fmt_rate(pair.rate_per_dim), f"{pair.fine.scale:.9f}",
            f"{coarse.scale:.9f}", _fmt_rate(second_moment(coarse)),
            f"{r_u:.9f}", f"{r_l:.9f}", f"{r_u / r_l:.9f}",
            f"{eps.epsilon:.9f}", f"{eps.amplification:.9f}",
            f"{covering_ball_second_moment(coarse):.9f}",
            f"{ball_normalized_second_moment(cfg.N):.9f}"])
        _emit(cfg, [f"# config: {cfg.echo()}", header, row])
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="lsl", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--K", type=int, dest="K")
    common.add_argument("--P", help="comma list of K powers")
    common.add_argument("--a", help="comma list of K-1 cross gains")
    common.add_argument("--family", choices=(CUBIC, CONSTRUCTION_A))
    common.add_argument("--q", type=int)
    common.add_argument("--N", type=int, dest="N")
    common.add_argument("--generator",
                        help="code rows, e.g. '1,1' or '1,0;0,1'")
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="write CSV here instead of stdout")
    common.add_argument("--jobs", type=int, help="worker threads for simulate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("rates", cmd_rates), ("simulate", cmd_simulate),
                       ("leakage", cmd_leakage), ("repr-check", cmd_repr_check),
                       ("lattice-info", cmd_lattice_info)):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=func)
    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--var", choices=_SWEEP_VARS)
    p.add_argument("--from", type=float, dest="sweep_from")
    p.add_argument("--to", type=float, dest="sweep_to")
    p.add_argument("--step", type=float, dest="sweep_step")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleConfigError, CapacityError) as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
