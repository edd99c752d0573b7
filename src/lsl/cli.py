"""Reproducible experiment front door.

Subcommands: rates, sweep, simulate, leakage, repr-check, lattice-info.
``_KEYS`` declares each configuration key once (field, parser, echo
printer, help).  The flags, config-file validation, the precedence merge
(defaults < ``LSL_SEED`` < config file < flags) and ``RunConfig.echo``
derive from it, and a value goes through its key's parser whatever its
source.  Config files are flat key=value lines, ``#`` comments allowed.
Each subcommand builds ordered ``(column, cell)`` records, which
``_emit`` writes as the config-echo line, the header and the rows.
``main`` builds the argument parser once per process, on its first call
(never at import), and looks the subcommand's ``cmd_*`` function up by
name on every call.

CSV output is byte-deterministic for a fixed (config, seed): rates print
with six fixed decimals, probabilities in scientific notation, and the
config echo is lossless; ``leakage``, ``repr-check`` and ``lattice-info``
read no channel, so they echo no P or a.

Exit codes: 0 success, 1 usage or parse error (an unwritable ``--out``
too; a missing ``--out`` directory is caught before any work), 2
infeasible configuration or a cap exceeded, 3 internal invariant
violation.  Caps go before any work: a printed q^N or K^N needs
N*log2(base) <= 4096 bits, a leakage row ``STATE_CAP``: a
Construction-A row's M^(K-1) joint states, and for a cubic row, one
count vector stepped by a prefix sum, the additions a direct window sum
would do.  A trial needs K*N <= ``CHUNK_DRAWS``, simulate q <= 2^32, and
a Construction-A code q^k*N <= 2^22 enumerated entries.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

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
    mod_lattice,
    second_moment,
)
from .leakage import check_power_bits, leakage_row
from .rates import (
    SystemConfig,
    achievable_sum_rate,
    decoding_thresholds,
    interferer_sum_rate,
    mmse_coefficients,
    per_user_secrecy_cost,
    poltyrev_exponent,
    rate_split,
    symmetric_upper_bound_sum_rate,
    upper_bound_sum_rate,
    very_strong_gain_threshold,
    very_strong_interference,
)
from .representation import certify_batch, reconstruct_batch
from .simulate import (
    CHUNK_DRAWS,
    Scheme,
    chunk_bounds,
    run_campaign,
    wilson_interval,
)

#: Margin applied to the very-strong-interference threshold when sweeps
#: choose symmetric cross gains automatically.
SWEEP_GAIN_MARGIN = 1.05

#: Most grid points in one sweep, and the largest K a K sweep may reach.
#: A point costs O(1) whatever its K, so the caps bound only the rows,
#: time and memory of one sweep's CSV.
SWEEP_MAX = 10_000

_SWEEP_VARS = ("K", "Pmin")


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

    def echo(self, channel: bool = True) -> str:
        return " ".join(f"{key}={spec.show(getattr(self, spec.field))}"
                        for key, spec in _KEYS.items() if spec.show
                        and (channel or key not in ("P", "a")))

    def hash(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


def _fmt_float(v) -> str:
    """``:g`` when that reads back as ``v`` exactly, else the repr."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


def _fmt_list(values) -> str:
    return ",".join(_fmt_float(v) for v in values)


def _fmt_generator(rows) -> str:
    return ";".join(",".join(map(str, row)) for row in rows) if rows else "-"


def _fmt_rate(x) -> str:
    return f"{x:.6f}"


def _fmt_prob(x) -> str:
    return f"{x:.6e}"


def _fmt_bool(b) -> str:
    return "1" if b else "0"


def _joined(fmt, values) -> str:
    return ";".join(fmt(v) for v in values)


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _parse_generator(text):
    return None if text == "-" else tuple(
        tuple(int(v) for v in row.split(",")) for row in text.split(";"))


def _parse_positive(text):
    value = int(text)
    if value < 1:
        raise ValueError("must be positive")
    return value


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ValueError(f"choose from {', '.join(options)}")
        return text
    return parse


class _Key(NamedTuple):
    field: str                      # RunConfig attribute
    parse: Callable[[str], object]  # text -> value; ValueError if malformed
    show: Callable | None           # value -> echo text; None: not echoed
    help: str
    sweep: bool = False             # a flag of ``sweep`` only
    env: str | None = None          # environment variable, below the file


#: Every configuration key, in config-echo order.
_KEYS = {
    "K": _Key("K", int, str, "number of users"),
    "P": _Key("P", _parse_floats, _fmt_list, "comma list of K powers"),
    "a": _Key("a", _parse_floats, _fmt_list, "comma list of K-1 cross gains"),
    "family": _Key("family", _choice(CUBIC, CONSTRUCTION_A), str,
                   f"lattice family, {CUBIC} or {CONSTRUCTION_A}"),
    "q": _Key("q", int, str, "nesting ratio per dimension"),
    "N": _Key("N", int, str, "lattice dimension"),
    "generator": _Key("generator", _parse_generator, _fmt_generator,
                      "code rows, e.g. '1,1' or '1,0;0,1'"),
    "trials": _Key("trials", _parse_positive, str, "number of trials"),
    "seed": _Key("seed", int, str, "master seed", env="LSL_SEED"),
    "out": _Key("out", str, None, "write CSV here instead of stdout"),
    "jobs": _Key("jobs", _parse_positive, None,
                 "ignored, must be positive: campaigns run on one thread"),
    "var": _Key("var", _choice(*_SWEEP_VARS), None,
                "sweep variable, " + " or ".join(_SWEEP_VARS), True),
    "from": _Key("sweep_from", float, None, "first sweep value", True),
    "to": _Key("sweep_to", float, None, "last sweep value", True),
    "step": _Key("sweep_step", float, None, "sweep step", True),
}


def _parse(key, text, where=""):
    try:
        return _KEYS[key].parse(text)
    except ValueError as exc:
        raise UsageError(f"{where}cannot parse {key}={text!r}: {exc}") \
            from None


def _read_config_file(path) -> dict:
    """Parsed values of a key=value file, each checked like its flag."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        where = f"{path}:{lineno}: "
        if not sep or not key:
            raise UsageError(f"{where}expected key=value")
        if key not in _KEYS:
            raise UsageError(f"{where}unknown key {key!r}")
        values[key] = _parse(key, val, where)
    return values


def _resolve_config(args) -> RunConfig:
    """Defaults < environment < config file < flags, as one RunConfig."""
    values = {key: _parse(key, os.environ[spec.env], f"{spec.env}: ")
              for key, spec in _KEYS.items()
              if spec.env and spec.env in os.environ}
    if args.config:
        values.update(_read_config_file(args.config))
    for key in _KEYS:
        text = getattr(args, key, None)
        if text is not None:
            values[key] = _parse(key, text)
    return replace(RunConfig(),
                   **{_KEYS[key].field: v for key, v in values.items()})


def _emit(cfg: RunConfig, records, channel: bool = True) -> None:
    """Write the config echo, the header (from the first record) and one
    row per record; a record is an ordered list of ``(column, cell)``.
    A subcommand that reads no channel passes ``channel=False``."""
    lines = [f"# config: {cfg.echo(channel)}",
             ",".join(column for column, _ in records[0])]
    lines += [",".join(cell for _, cell in record) for record in records]
    text = "\n".join(lines) + "\n"
    if not cfg.out:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {cfg.out}: {exc.strerror or exc}") \
            from None


def _report(cfg: RunConfig, fields, channel: bool = True) -> None:
    """Print ``(label, column, cell)`` fields as text, and as CSV with
    --out; a field without a label is CSV only, one without a column text
    only."""
    for label, _, cell in fields:
        if label:
            print(f"  {label:<26} {cell or 'n/a'}")
    if cfg.out:
        _emit(cfg, [[(column, cell) for _, column, cell in fields if column]],
              channel)


def cmd_rates(cfg: RunConfig) -> int:
    system = cfg.system()
    vs = very_strong_interference(system)
    achievable = achievable_sum_rate(system.K, system.p_min, system.p_k)
    try:  # the converse needs every a_i >= 1; its cells stay empty if not
        upper = upper_bound_sum_rate(system)
        upper_cell, gap_cell = _fmt_rate(upper), _fmt_rate(upper - achievable)
    except InfeasibleConfigError:
        upper_cell = gap_cell = ""
    thr = decoding_thresholds(system)
    mmse = mmse_coefficients(system)
    split = rate_split(system)
    _report(cfg, [
        ("users K", "K", str(system.K)),
        ("powers P", None, _fmt_list(system.P)),
        ("cross gains a", None, _fmt_list(system.a)),
        ("aligned user j*", "j_star", str(vs.j_star)),
        ("aligned received power P", "P_aligned",
         _fmt_rate(system.p_aligned)),
        ("smallest power P_min", "P_min", _fmt_rate(system.p_min)),
        ("very strong interference", "very_strong", _fmt_bool(vs.satisfied)),
        ("very-strong threshold", None, _fmt_rate(vs.threshold)),
        ("achievable sum, bits/use", "achievable_sum",
         _fmt_rate(achievable)),
        ("achievable sum clamped", "clamp_active",
         _fmt_bool(interferer_sum_rate(system.K, system.p_min) < 0.0)),
        ("upper bound, bits/use", "upper_sum", upper_cell),
        ("gap, bits/use", "gap", gap_cell),
        ("mod-sum threshold", "threshold_modsum", _fmt_rate(thr.mod_sum)),
        ("residual ok", "distortion_ok", _fmt_bool(thr.distortion_ok)),
        ("user-K threshold", "threshold_user_k", _fmt_rate(thr.user_k)),
        ("alpha*", "alpha_star", f"{mmse.alpha:.9f}"),
        ("effective noise variance", "eff_noise_var",
         f"{mmse.effective_noise_var:.9f}"),
        ("mu = P/(P_K+1)", "mu", _fmt_rate(thr.mu)),
        ("Poltyrev exponent", "poltyrev",
         _fmt_rate(poltyrev_exponent(thr.mu)) if thr.distortion_ok else ""),
        ("rate split r_x", "rate_split_x", _fmt_rate(split.r_x)),
        ("rate split r_e", "rate_split_e", _fmt_rate(split.r_e)),
        ("rate split feasible", "rate_split_feasible",
         _fmt_bool(split.feasible)),
        ("per-user secrecy cost", "per_user_cost",
         _fmt_rate(per_user_secrecy_cost(system.p_min, system.K))),
        ("direct thresholds", "threshold_direct",
         _joined(_fmt_rate, thr.direct)),
        ("direct thresholds (phys)", "threshold_direct_physical",
         _joined(_fmt_rate, thr.direct_physical)),
    ])
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    lo, hi, step = cfg.sweep_from, cfg.sweep_to, cfg.sweep_step
    if cfg.var is None or lo is None or hi is None:
        raise UsageError("sweep needs --var, --from and --to")
    if not (lo <= hi and step > 0):
        raise UsageError("sweep needs from <= to and a positive step")
    base = cfg.system()
    if cfg.var == "K":
        if not all(float(v).is_integer() for v in (lo, hi, step)):
            raise UsageError("K sweep needs integer from, to and step")
        ks = range(int(lo), int(hi) + 1, int(step))
        if ks[0] < 3:
            raise UsageError("K sweep must start at 3 or above")
        if ks[-1] > SWEEP_MAX:
            raise CapacityError(f"K sweep goes above K={SWEEP_MAX}")
        points = ((str(k), k, base.p_min) for k in ks)
    else:
        if lo <= 0:
            raise UsageError("Pmin sweep values must be positive")
        points = ((_fmt_rate(v), base.K, v) for v in _pmin_grid(lo, hi, step))
    # A point is the symmetric channel (K, P_min, P_K) with every cross
    # gain set to the margin times its very-strong threshold: a gain >= 1,
    # so the converse is its symmetric closed form.
    p_k = base.p_k
    records = []
    for value, k, p_min in points:
        threshold = very_strong_gain_threshold(k, p_min, p_min, p_k)
        gain = SWEEP_GAIN_MARGIN * threshold
        if not math.isfinite((k - 1) * gain * p_min):
            raise ValueError(
                f"auto cross gain overflows the received power at "
                f"{cfg.var}={value}")
        achievable = achievable_sum_rate(k, p_min, p_k)
        upper = symmetric_upper_bound_sum_rate(k, p_min, p_k)
        records.append([
            ("var", cfg.var), ("value", value), ("K", str(k)),
            ("a_auto", _fmt_rate(gain)),
            ("per_user_cost", _fmt_rate(per_user_secrecy_cost(p_min, k))),
            ("achievable_sum", _fmt_rate(achievable)),
            ("upper_sum", _fmt_rate(upper)),
            ("gap", _fmt_rate(upper - achievable)),
            ("clamp_active", _fmt_bool(interferer_sum_rate(k, p_min) < 0.0)),
            ("very_strong", _fmt_bool(gain > threshold))])
    _emit(cfg, records)
    return 0


def _pmin_grid(lo: float, hi: float, step: float) -> list[float]:
    """The points lo, lo + step, ... up to hi, as ``np.arange(lo, hi +
    1e-12, step)`` gives them below 2^14, capped at ``SWEEP_MAX``.

    From 2^14 up, hi + 1e-12 rounds back to hi; the stop is then the
    float after hi, so that hi stays on the grid.  Point i is
    lo + i*((lo + step) - lo), as numpy fills it.
    """
    stop = max(hi + 1e-12, math.nextafter(hi, math.inf))
    span = (stop - lo) / step
    if span > SWEEP_MAX:
        raise CapacityError(f"Pmin sweep has more than {SWEEP_MAX} points")
    delta = (lo + step) - lo
    return [lo] + [lo + i * delta for i in range(1, math.ceil(span))]


def cmd_simulate(cfg: RunConfig) -> int:
    system = cfg.system()
    mu = decoding_thresholds(system).mu
    if mu <= 1.0:
        raise InfeasibleConfigError(
            "aligned interference power must exceed P_K + 1 "
            f"(mu = {mu:.6f})")
    scheme = Scheme.for_config(system, cfg.pair())
    c = run_campaign(scheme, cfg.trials, cfg.seed)
    record = [("config_hash", cfg.hash()), ("trials", str(c.trials)),
              ("seed", str(cfg.seed))]
    for event, count in (("e1", c.e1_count), ("e2", c.e2_count),
                         ("e3", c.e3_count)):
        lo, hi = wilson_interval(count, c.trials)
        record += [(f"{event}_count", str(count)),
                   (f"{event}_rate", _fmt_prob(count / c.trials)),
                   (f"{event}_lo", _fmt_prob(lo)),
                   (f"{event}_hi", _fmt_prob(hi))]
    direct_rates, direct_lo, direct_hi = zip(*(
        (count / c.trials, *wilson_interval(count, c.trials))
        for count in c.direct_error_counts))
    record += [
        ("direct_counts", _joined(str, c.direct_error_counts)),
        ("direct_rates", _joined(_fmt_prob, direct_rates)),
        ("direct_lo", _joined(_fmt_prob, direct_lo)),
        ("direct_hi", _joined(_fmt_prob, direct_hi)),
        ("mean_eff_noise_power", _fmt_rate(c.mean_effective_noise_power)),
        ("predicted_eff_noise_var", _fmt_rate(scheme.effective_noise_var)),
        ("mean_residual_power", _fmt_rate(c.mean_residual_power))]
    _emit(cfg, [record])
    return 0


def cmd_leakage(cfg: RunConfig) -> int:
    row = leakage_row(cfg.pair(), cfg.K)
    _emit(cfg, [[
        ("K", str(cfg.K)), ("q", str(cfg.q)), ("N", str(cfg.N)),
        ("M", str(row.M)),
        ("rate_per_dim", _fmt_rate(row.rate_per_dim)),
        ("h_cond", _fmt_rate(row.h_cond)),
        ("identity_target", _fmt_rate(row.identity_target)),
        ("identity_ok", _fmt_bool(row.identity_ok)),
        ("chain_first", _fmt_rate(row.chain_first)),
        ("chain_last", _fmt_rate(row.chain_last)),
        ("leakage", _fmt_rate(row.leakage)),
        ("bound", _fmt_rate(row.bound)),
        ("modsum_entropy", _fmt_rate(row.modsum_entropy)),
        ("index_entropy", _fmt_rate(row.index_entropy)),
        ("index_bound", _fmt_rate(row.index_bound)),
        ("passed", _fmt_bool(row.passed))]], channel=False)
    return 0


def cmd_repr_check(cfg: RunConfig) -> int:
    if cfg.family != CUBIC:
        raise UsageError(
            "repr-check certifies sums on the coarse lattice, which is "
            "cubic for every family; use --family cubic")
    lattice = cfg.pair().coarse
    rng = np.random.default_rng(cfg.seed)
    k = cfg.K
    if k < 1:
        raise ValueError("need at least one point")
    check_power_bits("index bound", k, cfg.N)
    if k * cfg.N > CHUNK_DRAWS:
        raise CapacityError(f"K*N = {k * cfg.N} draws exceed {CHUNK_DRAWS}")
    failures = 0
    max_index = 0
    for lo, hi in chunk_bounds(cfg.trials, k * cfg.N):
        # Row-major, so chunk by chunk the same stream as K dither draws
        # per trial in turn.
        draws = rng.random((hi - lo, k, cfg.N))
        points = mod_lattice(lattice, lattice.scale * draws)
        folded, index = certify_batch(points, lattice)
        rec = reconstruct_batch(folded, index, k, lattice)
        close = np.isclose(rec, points.sum(axis=-2), atol=1e-9)
        failures += int(np.count_nonzero(~np.all(close, axis=-1)))
        max_index = max(max_index, int(index.max()))
    bound = k ** cfg.N
    _emit(cfg, [[
        ("family", cfg.family), ("q", str(cfg.q)), ("N", str(cfg.N)),
        ("K", str(k)), ("trials", str(cfg.trials)),
        ("failures", str(failures)), ("max_index", str(max_index)),
        ("index_bound", str(bound)),
        ("passed", _fmt_bool(failures == 0 and max_index <= bound))]],
          channel=False)
    if failures or max_index > bound:
        raise InvariantViolationError(
            f"{failures} reconstruction failures, max index {max_index}")
    return 0


def cmd_lattice_info(cfg: RunConfig) -> int:
    pair = cfg.pair()
    if pair.fine.family == CUBIC:
        check_power_bits("codebook size", pair.q, pair.dimension)
    coarse = pair.coarse
    eps = gaussian_approx_epsilon(coarse)
    r_u = covering_radius(coarse)
    r_l = effective_radius(coarse)
    _report(cfg, [
        ("family", "family", cfg.family),
        ("q", "q", str(cfg.q)),
        ("N", "N", str(cfg.N)),
        ("codebook size", "M", str(pair.nesting_ratio)),
        ("rate per dim", "rate_per_dim", _fmt_rate(pair.rate_per_dim)),
        ("fine scale", "fine_scale", f"{pair.fine.scale:.9f}"),
        ("coarse scale", "coarse_scale", f"{coarse.scale:.9f}"),
        ("coarse second moment", "coarse_second_moment",
         _fmt_rate(second_moment(coarse))),
        ("covering radius", "covering_radius", f"{r_u:.9f}"),
        ("effective radius", "effective_radius", f"{r_l:.9f}"),
        ("radius ratio", "radius_ratio", f"{r_u / r_l:.9f}"),
        ("epsilon (natural log)", "epsilon", f"{eps.epsilon:.9f}"),
        ("amplification exp(N*eps)", "amplification",
         f"{eps.amplification:.9f}"),
        ("covering-ball moment", "covering_ball_moment",
         f"{covering_ball_second_moment(coarse):.9f}"),
        ("ball moment constant", "ball_constant",
         f"{ball_normalized_second_moment(cfg.N):.9f}"),
    ], channel=False)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="lsl", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    sweep_only = _Parser(add_help=False)
    for key, spec in _KEYS.items():
        (sweep_only if spec.sweep else common).add_argument(
            f"--{key}", dest=key, help=spec.help)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("rates", "sweep", "simulate", "leakage", "repr-check",
                 "lattice-info"):
        # Built once per process, so it holds the name only: main looks
        # up cmd_<name> per call, and a patched module attribute is
        # honoured.
        parents = [common, sweep_only] if name == "sweep" else [common]
        sub.add_parser(name, parents=parents)
    return parser


#: Built by the first ``main`` call; parsing leaves it unchanged.
_parser: _Parser | None = None


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = _build_parser()
        args = _parser.parse_args(argv)
        cfg = _resolve_config(args)
        if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
            raise UsageError(f"cannot write {cfg.out}: no such directory")
        return globals()["cmd_" + args.command.replace("-", "_")](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
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
